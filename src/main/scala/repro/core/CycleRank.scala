package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{DirectedGraph, GraphOps}

/** CycleRank (paper §II, Eq. 1; Consonni et al. 2020).
  *
  * `CR_{r,K}(i) = Σ_{n=2..K} σ(n) · c_{r,n}(i)` where `c_{r,n}(i)` is the
  * number of simple cycles of length n (edges) containing both the
  * reference node r and node i.
  *
  * Evaluated in two steps:
  *
  *  1. '''Prune''' — r must be a vertex of the graph's driver-side
  *     [[repro.graph.IndexedGraph]] (an id lookup). A capped BFS from r
  *     then runs forward over the index's out-adjacency and backward over
  *     its in-adjacency, K−1 levels at most, with plain array loops and no
  *     Spark job ([[GraphOps.cappedBfs]]).
  *     A vertex can lie on a qualifying cycle only if
  *     `distₒᵤₜ(r,v) + distᵢₙ(v,r) ≤ K`; these vertices form the support.
  *     On hub-and-community graphs it is orders of magnitude smaller than
  *     the graph.
  *  2. '''Kernel''' — the edges with both endpoints in the support are
  *     read from the index's rows ([[supportEdges]]) and handed to
  *     [[LocalCycleRank.runOnEdges]], which enumerates every simple cycle of
  *     length ≤ K through r by bounded DFS (Johnson-style), within a budget
  *     of [[MaxKernelSteps]] path extensions, and credits
  *     `σ(n)` to each of its members. The support-induced subgraph keeps
  *     every such cycle, so the answer is exact.
  *
  * The result contains only vertices with a strictly positive score (the
  * paper's Table III shows short lists — "–" cells — when fewer than five
  * vertices share a cycle with r). The reference node always attains the
  * maximum score, because by definition it is on every counted cycle.
  */
object CycleRank {

  /** @param k       maximum cycle length in edges (paper uses 3 and 5)
    * @param scoring σ(n); [[Scoring.Exponential]] is the paper's default
    */
  final case class Config(k: Int = 3, scoring: Scoring = Scoring.Exponential) {
    require(k >= 2, s"K must be > 1 (got $k)")
  }

  /** Maximum number of support edges handed to the driver kernel. */
  val MaxDriverEdges: Int = 5_000_000

  /** Maximum number of path extensions the kernel's DFS makes for one
    * query: the enumeration is exponential in K, and a dense support within
    * [[MaxDriverEdges]] can hold ~10¹² paths of length < 5. An extension
    * scans the new vertex's out-neighbours, so its cost grows with the
    * degree: on complete digraphs it took 0.10 µs at degree 39, 0.35 µs at
    * degree 199 and 2.0 µs at degree 999 (4-core VM, median of 3), so the
    * kernel gives up within about 7 s at degree 200 and 40 s at degree
    * 1 000. Extrapolated linearly, that is about 1.5 minutes at degree
    * ~2 200, the densest support [[MaxDriverEdges]] admits. The largest
    * bench query (cr-large, K=5) makes 32 856 extensions.
    */
  val MaxKernelSteps: Long = 20_000_000L

  /** CycleRank of `ref`. Returns `(id, score)` with `score > 0`. */
  def run(g: DirectedGraph, ref: Long, cfg: Config = Config()): DataFrame = {
    val spark = g.edges.sparkSession
    require(g.index.contains(ref), s"reference node $ref is not in the graph")
    val (fwd, bwd) = GraphOps.cappedBfs(g, ref, cfg.k - 1)
    val support = fwd.keySet.filter(v => bwd.get(v).exists(_ + fwd(v) <= cfg.k))
    // With a support of r alone, r shares no cycle of length ≤ K.
    if (support.size <= 1) return scoresDf(spark, Map.empty)
    val edges = supportEdges(g, support, ref, cfg.k, MaxDriverEdges)
    scoresDf(spark, LocalCycleRank.runOnEdges(edges, ref, cfg))
  }

  /** The edges with both endpoints in `support`, read from the rows of the
    * index's out-adjacency whose vertex is in a bit set of the support's
    * indices. Fails naming `ref`, `k` and `limit` when there are more than
    * `limit` of them.
    */
  private[core] def supportEdges(g: DirectedGraph, support: Set[Long], ref: Long, k: Int,
                                 limit: Int): Seq[(Long, Long)] = {
    val ix = g.index
    val out = ix.out
    val inSupport = new java.util.BitSet(ix.numVertices)
    support.iterator.map(ix.indexOf).filter(_ >= 0).foreach(inSupport.set)
    val edges = Iterator.iterate(inSupport.nextSetBit(0))(v => inSupport.nextSetBit(v + 1))
      .takeWhile(_ >= 0)
      .flatMap(v => (out.offsets(v) until out.offsets(v + 1)).iterator.map(out.nbrs)
        .filter(inSupport.get).map(w => (ix.ids(v), ix.ids(w))))
      .take(limit + 1).toVector
    require(edges.length <= limit,
      s"CycleRank support of reference $ref at K=$k has more than $limit edges, " +
      "the most the driver kernel takes")
    edges
  }

  private def scoresDf(spark: SparkSession, scores: Map[Long, Double]): DataFrame = {
    import spark.implicits._
    scores.toSeq.sortBy(_._1).toDF("id", "score")
  }
}

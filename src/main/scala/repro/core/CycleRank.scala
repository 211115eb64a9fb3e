package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{DirectedGraph, IndexedGraph}

/** CycleRank (paper §II, Eq. 1; Consonni et al. 2020).
  *
  * `CR_{r,K}(i) = Σ_{n=2..K} σ(n) · c_{r,n}(i)` where `c_{r,n}(i)` is the
  * number of simple cycles of length n (edges) containing both the
  * reference node r and node i.
  *
  * One kernel over the graph's driver-side [[repro.graph.IndexedGraph]],
  * with no Spark job — the analogue of the authors' reference C++
  * implementation, a depth-bounded form of Johnson's simple-cycle
  * enumeration (D. B. Johnson, SIAM J. Comput. 4(1), 1975):
  *
  *  1. '''Backward BFS''' — the hop counts `bdist(v)` from every vertex v
  *     back to r, over the index's in-adjacency, K−1 levels at most.
  *  2. '''DFS''' — every simple path from r over the out-adjacency is
  *     extended to `w` only while `bdist(w) ≤ K − len` still lets the
  *     cycle close within K edges; each edge back to r closes a cycle and
  *     credits its length to every vertex on the path. The DFS keeps its
  *     path on an explicit stack, so a long cycle does not deepen the JVM
  *     stack, and it stops after [[MaxKernelSteps]] path extensions.
  *
  * A path of `len` edges from r reaches only vertices at forward distance
  * ≤ len, so the guard keeps the DFS inside the support
  * `distₒᵤₜ(r,v) + distᵢₙ(v,r) ≤ K` without a forward BFS, and the answer
  * is exact.
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

  /** Maximum number of path extensions the kernel's DFS makes for one
    * query: the enumeration is exponential in K (from a vertex of a complete
    * digraph of degree d there are ~d^(K−1) simple paths of fewer than K
    * edges). An extension scans the new vertex's whole out-row in the
    * index, so its cost grows with the out-degree: on complete digraphs,
    * where every row is whole, it took 0.10 µs at degree 39, 0.35 µs at
    * degree 199 and 2.0 µs at degree 999 (4-core VM, median of 3), so the
    * kernel gives up within about 7 s at degree 200 and 40 s at degree
    * 1 000. Beyond that the time grows with the degree; no figure above
    * degree 999 was measured. The largest bench query (cr-large, K=5) makes
    * 32 856 extensions.
    */
  val MaxKernelSteps: Long = 20_000_000L

  /** CycleRank of `ref`. Returns `(id, score)` with `score > 0`. */
  def run(g: DirectedGraph, ref: Long, cfg: Config = Config()): DataFrame = {
    val ix = g.index
    require(ix.contains(ref), s"reference node $ref is not in the graph")
    scoresDf(g.edges.sparkSession, scores(ix, ref, cfg, MaxKernelSteps))
  }

  /** The kernel: the positive scores of the vertices of `ix` that share a
    * cycle of length ≤ K with `ref`, a vertex of `ix`. Fails naming `ref`
    * and K when the DFS would extend a path more than `maxSteps` times.
    */
  private[core] def scores(ix: IndexedGraph, ref: Long, cfg: Config,
                           maxSteps: Long): Map[Long, Double] = {
    val out = ix.out
    val r = ix.indexOf(ref)
    // Backward distances to r, up to K-1 (Int.MaxValue beyond).
    val bdist = IndexedGraph.distances(ix.in, r, cfg.k - 1)
    // Every vertex on a cycle through r is in its backward ball, and no
    // simple cycle is longer than the ball, so the arrays and the scores
    // are sized by min(K, ball size): a larger K changes neither.
    val ball = bdist.count(_ < Int.MaxValue)
    val k = math.min(cfg.k, ball)

    // Cycles per (vertex, length) are counted exactly; the scores are
    // summed from the counts in increasing length, so they do not depend
    // on edge order and exact ties stay exact. Only the lengths that occur
    // get counts: counts(len)(pos(u) - 1) counts u's cycles of length len,
    // where pos(u) numbers the vertices from 1 as they are first found on
    // a cycle (0: not yet). A counts row grows to twice the vertices found
    // when it is too short for them, and never beyond the ball.
    val counts = new Array[Array[Long]](k + 1)
    val pos = new Array[Int](ix.numVertices)
    var found = 0
    // path(0 until len) is the current path, path(0) = r; next(d) is the
    // position in out.nbrs of path(d)'s next successor to try.
    val path = new Array[Int](k)
    val next = new Array[Int](k)
    val onPath = new Array[Boolean](ix.numVertices)
    path(0) = r; next(0) = out.offsets(r); onPath(r) = true
    var len = 1
    var steps = 0L
    while (len > 0) {
      val v = path(len - 1)
      if (next(len - 1) == out.offsets(v + 1)) {
        onPath(v) = false; len -= 1
      } else {
        val w = out.nbrs(next(len - 1))
        next(len - 1) += 1
        if (w == r) {
          if (len >= 2) {
            var p = 0
            while (p < len) {
              if (pos(path(p)) == 0) { found += 1; pos(path(p)) = found }
              p += 1
            }
            val row = counts(len)
            if (row == null) counts(len) = new Array[Long](math.min(2 * found, ball))
            else if (row.length < found) counts(len) = java.util.Arrays.copyOf(row, math.min(2 * found, ball))
            p = 0
            while (p < len) { counts(len)(pos(path(p)) - 1) += 1; p += 1 }
          }
        } else if (len < k && !onPath(w) && bdist(w) <= k - len) {
          steps += 1
          require(steps <= maxSteps,
            s"CycleRank enumeration for reference $ref at K=${cfg.k} exceeded its budget of " +
            s"$maxSteps DFS steps (reached $steps)")
          path(len) = w; next(len) = out.offsets(w); onPath(w) = true
          len += 1
        }
      }
    }
    // A length with no row, or a row too short for u, would add 0.0 to the
    // sum, which leaves it unchanged: skipping them keeps the scores those
    // of a sum over every length.
    val lengths = Array.range(2, k + 1).filter(counts(_) != null)
    val sigma = lengths.map(cfg.scoring.sigma)
    val result = Map.newBuilder[Long, Double]
    for (u <- pos.indices if pos(u) > 0) {
      var score = 0.0
      var i = 0
      while (i < lengths.length) {
        val row = counts(lengths(i))
        if (pos(u) <= row.length) score += sigma(i) * row(pos(u) - 1)
        i += 1
      }
      if (score > 0) result += ix.ids(u) -> score
    }
    result.result()
  }

  private def scoresDf(spark: SparkSession, scores: Map[Long, Double]): DataFrame = {
    import spark.implicits._
    scores.toSeq.sortBy(_._1).toDF("id", "score")
  }
}

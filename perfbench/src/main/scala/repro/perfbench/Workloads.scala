package repro.perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{CycleRank, LocalCycleRank, Scoring}
import repro.data.{NamedGraphs, SyntheticGraphs}
import repro.experiments.Tables
import repro.graph.{DirectedGraph, GraphOps}

/** One query of a workload: an algorithm-registry key and its parameters,
  * exactly as a task-builder form would submit them.
  */
final case class Query(algorithm: String, params: Map[String, String]) {
  def ref: Option[Long] = params.get("ref").map(_.toLong)
  def k: Int = params.get("k").map(_.toInt).getOrElse(3)
  def alpha: Double = params.get("alpha").map(_.toDouble).getOrElse(0.85)
  def isCycleRank: Boolean = algorithm == "cyclerank"
  def label: String =
    (algorithm +: params.toSeq.sorted.collect {
      case (key, v) if key == "ref" || key == "k" || key == "alpha" => s"$key=$v"
    }).mkString(" ")
}

/** A reference chosen by a workload's selection rule, with its CycleRank
  * support size (vertices with `dist(r,v) + dist(v,r) ≤ K`, r included).
  */
final case class Reference(id: Long, supportByK: Map[Int, Int])

/** A generated workload: the graph uploaded as dataset `dataset`, its edge
  * list held locally (reference rule and correctness gate), the query set
  * in submission order, and the number of untimed warm-up passes a run
  * makes before it measures.
  */
final case class Workload(
    name: String,
    dataset: String,
    graph: DirectedGraph,
    edges: Array[(Long, Long)],
    queries: Vector[Query],
    references: Seq[Reference],
    warmups: Int = 1)

object Workloads {

  val names: Seq[String] = Seq("table1-queryset", "cr-small", "cr-large")

  /** PageRank-family iteration settings: converge to `tol` with a cap that
    * never binds (the registry default of 60 sweeps does bind at α=0.85).
    */
  val PrTol = 1e-10
  private val PrConverge = Map("tol" -> PrTol.toString, "maxIter" -> "100000")

  def build(spark: SparkSession, name: String, seed: Long): Workload = name match {
    case "table1-queryset" => table1(spark)
    case "cr-small"        => crSmall(spark, seed)
    case "cr-large"        => crLarge(spark, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; known: ${names.mkString(", ")}")
  }

  private def pr(alg: String, alpha: Double, ref: Option[Long]): Query =
    Query(alg, Map("alpha" -> alpha.toString) ++ ref.map(r => "ref" -> r.toString) ++ PrConverge)

  private def cr(ref: Long, k: Int): Query =
    Query("cyclerank", Map("ref" -> ref.toString, "k" -> k.toString, "sigma" -> "exp"))

  /** The paper's Table I query set on the en-wiki stand-in: PageRank
    * (α=0.85), and CycleRank (K=3) and personalized PageRank (α=0.3) for
    * "Freddie Mercury" and "Pasta". The input is fixed, so the seed does
    * not change it.
    */
  private def table1(spark: SparkSession): Workload = {
    val g0 = NamedGraphs.wikipediaEn(spark)
    val g = DirectedGraph(g0.edges.localCheckpoint(eager = true),
                          g0.labels.map(_.localCheckpoint(eager = true)))
    val fm = Tables.idOf(g, "Freddie Mercury")
    val pasta = Tables.idOf(g, "Pasta")
    val queries = Vector(
      pr("pagerank", 0.85, None),
      pr("personalized-pagerank", 0.3, Some(fm)),
      pr("personalized-pagerank", 0.3, Some(pasta)),
      cr(fm, 3),
      cr(pasta, 3))
    val edges = collectEdges(g)
    val adj = new Adjacency(edges)
    Workload("table1-queryset", "enwiki", g, edges, queries,
      Seq(fm, pasta).map(r => Reference(r, Map(3 -> adj.supportSize(r, 3)))))
  }

  /** Scale factor of the `wikilinkLike` host graph (sf=0.01: 2 000 vertices). */
  val Sf = 0.01

  /** Number of cr-small references; each is queried at K=5 and K=3. One
    * keeps a pass short, so that a run's median covers several passes.
    */
  val SmallRefs = 1
  val SmallMaxSupport = 20
  /** Untimed warm-up passes of cr-small. Pass times fell by about a third
    * from the first pass of a run to the second and by about a quarter from
    * the second to the third; from the third on they level off.
    */
  val SmallWarmups = 2
  private val BlockSize = 25 // SyntheticGraphs.wikilinkLike's community block size

  /** CycleRank at K ∈ {3, 5} on `wikilinkLike(sf=0.01)` for references
    * of small cycle support. Rule: visit the community blocks in an order
    * shuffled by the seed; in each block take the smallest id that
    * [[Adjacency.runsEverySweep]] at K=3 and K=5 and whose K=5 support is
    * at most [[SmallMaxSupport]]; stop at [[SmallRefs]] references from
    * distinct blocks. Requiring every sweep keeps the Spark job count of a
    * query the same for every reference, so seeds differ in data, not in
    * the amount of scheduling work.
    */
  private def crSmall(spark: SparkSession, seed: Long): Workload = {
    val g = materialise(SyntheticGraphs.wikilinkLike(spark, Sf))
    val edges = collectEdges(g)
    val adj = new Adjacency(edges)
    val n = SyntheticGraphs.nVertices(Sf)
    val blocks = new Random(seed).shuffle((0L until n / BlockSize).toVector)
    val refs = blocks.iterator.flatMap { b =>
      (b * BlockSize until math.min(n, (b + 1) * BlockSize)).iterator
        .filter(v => adj.runsEverySweep(v, 3) && adj.runsEverySweep(v, 5))
        .map(v => Reference(v, Map(3 -> adj.supportSize(v, 3), 5 -> adj.supportSize(v, 5))))
        .find(_.supportByK(5) <= SmallMaxSupport)
    }.take(SmallRefs).toVector
    if (refs.size < SmallRefs)
      throw new IllegalStateException(
        s"cr-small: found ${refs.size} of $SmallRefs references that run every sweep " +
        s"with K=5 support <= $SmallMaxSupport (seed $seed)")
    val queries = refs.map(r => cr(r.id, 5)) ++ refs.map(r => cr(r.id, 3))
    Workload("cr-small", "wikilink", g, edges, queries, refs, SmallWarmups)
  }

  /** Planted dense community: size, out-degree inside it, and the number
    * of edges joining it to the host graph in each direction.
    */
  val CommunitySize = 100
  val CommunityOutDeg = 20
  val CommunityBridges = 50
  val LargeRefs = 1
  val LargeMinSupport = 90

  /** CycleRank at K=5 and K=3 for references inside a dense community
    * planted (from the seed) into `wikilinkLike(sf=0.01)`. The benchmark
    * plants it because the generator itself has no reference with a large
    * support: `SynthData.zipfKeys` clamps about 94% of popularity draws to
    * vertex 0, so cycles elsewhere come only from the 25-vertex blocks.
    */
  private def crLarge(spark: SparkSession, seed: Long): Workload = {
    import spark.implicits._
    val host = materialise(SyntheticGraphs.wikilinkLike(spark, Sf))
    val n = SyntheticGraphs.nVertices(Sf)
    val rnd = new Random(seed)
    val members = (n until n + CommunitySize).toVector
    val inside = members.flatMap { v =>
      rnd.shuffle(members.filter(_ != v)).take(CommunityOutDeg).map(w => (v, w))
    }
    val out = Vector.fill(CommunityBridges)((members(rnd.nextInt(CommunitySize)), rnd.nextLong(n)))
    val in  = Vector.fill(CommunityBridges)((rnd.nextLong(n), members(rnd.nextInt(CommunitySize))))
    val planted = (inside ++ out ++ in).toDF("src", "dst")
    val g = materialise(GraphOps.clean(DirectedGraph(host.edges.union(planted))))
    val edges = collectEdges(g)
    val adj = new Adjacency(edges)
    val refs = rnd.shuffle(members).take(LargeRefs)
      .map(v => Reference(v, Map(3 -> adj.supportSize(v, 3), 5 -> adj.supportSize(v, 5))))
    refs.find(_.supportByK(5) < LargeMinSupport).foreach { r =>
      throw new IllegalStateException(
        s"cr-large: reference ${r.id} has K=5 support ${r.supportByK(5)} < $LargeMinSupport (seed $seed)")
    }
    val queries = refs.map(r => cr(r.id, 5)) ++ refs.map(r => cr(r.id, 3))
    Workload("cr-large", "wikilink-community", g, edges, queries, refs)
  }

  /** Pin a generated graph so uploads and probes do not regenerate it. */
  private def materialise(g: DirectedGraph): DirectedGraph =
    DirectedGraph(g.edges.localCheckpoint(eager = true), g.labels)

  private def collectEdges(g: DirectedGraph): Array[(Long, Long)] =
    g.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
}

/** In-memory adjacency for the reference rule: the same support
  * definition as CycleRank's prune stage, BFS capped at K−1 each way.
  */
final class Adjacency(edges: Array[(Long, Long)]) {
  private val out = edges.groupMap(_._1)(_._2)
  private val in  = edges.groupMap(_._2)(_._1)

  private def ball(adj: Map[Long, Array[Long]], start: Long, cap: Int): Map[Long, Int] = {
    val dist = mutable.HashMap(start -> 0)
    var frontier = Vector(start)
    var d = 0
    while (frontier.nonEmpty && d < cap) {
      d += 1
      frontier = frontier.flatMap(v => adj.getOrElse(v, Array.empty[Long])).distinct
        .filterNot(dist.contains)
      frontier.foreach(v => dist(v) = d)
    }
    dist.toMap
  }

  private def support(ref: Long, k: Int): Set[Long] = {
    val f = ball(out, ref, k - 1)
    val b = ball(in, ref, k - 1)
    f.collect { case (v, d) if b.get(v).exists(_ + d <= k) => v }.toSet
  }

  def supportSize(ref: Long, k: Int): Int = support(ref, k).size

  /** Whether a CycleRank query at `k` runs every sweep for `ref`: both
    * capped BFS passes still have a frontier at depth K−1, and a simple
    * cycle of length exactly K passes through `ref` (so path expansion
    * has open paths until sweep K).
    */
  def runsEverySweep(ref: Long, k: Int): Boolean = {
    def deep(adj: Map[Long, Array[Long]]) = ball(adj, ref, k - 1).valuesIterator.contains(k - 1)
    deep(out) && deep(in) && {
      val s = support(ref, k)
      val sub = edges.filter { case (a, b) => s(a) && s(b) }.toSeq
      def upTo(kk: Int) = LocalCycleRank.runOnEdges(sub, ref, CycleRank.Config(kk, Scoring.Constant))
        .getOrElse(ref, 0.0)
      upTo(k) > upTo(k - 1)
    }
  }
}

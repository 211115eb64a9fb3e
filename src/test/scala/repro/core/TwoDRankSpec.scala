package repro.core

import repro.SparkSpec

/** 2DRank: square-sweep construction over the (K, K*) plane. */
class TwoDRankSpec extends SparkSpec with GraphTestKit {

  private def ranksOf(df: org.apache.spark.sql.DataFrame): Map[Long, Int] =
    df.select("id", "rank").collect().map(r => r.getLong(0) -> r.getInt(1)).toMap

  /** The 2DRank position of each id under `combine`, for synthetic
    * PageRank and CheiRank scores given by id.
    */
  private def combined(pr: Map[Long, Double], chei: Map[Long, Double]): Map[Long, Int] = {
    val ids = pr.keys.toArray.sorted
    val s = TwoDRank.combine(ids.map(pr), ids.map(chei))
    s.order.zipWithIndex.map { case (v, p) => ids(v) -> (p + 1) }.toMap
  }

  test("node best in both rankings is 2DRank #1") {
    val r = combined(Map(1L -> 0.5, 2L -> 0.3, 3L -> 0.2), Map(1L -> 0.6, 2L -> 0.1, 3L -> 0.3))
    assert(r(1L) == 1)
  }

  test("square sweep: L decides before anything else") {
    // K:  a=1, b=2, c=3 ; K*: a=3, b=1, c=2  →  L: a=3, b=2, c=3
    val r = combined(Map(10L -> 0.9, 20L -> 0.5, 30L -> 0.1), Map(10L -> 0.1, 20L -> 0.9, 30L -> 0.5))
    assert(r(20L) == 1, s"smallest max(K,K*) must lead: $r")
  }

  test("vertical edge (K = L) precedes horizontal at equal L") {
    // a: (K=2, K*=1) vertical of L=2 ; b: (K=1, K*=2) horizontal of L=2
    val r = combined(Map(1L -> 0.9, 2L -> 0.5), Map(1L -> 0.5, 2L -> 0.9))
    assert(r(2L) == 1 && r(1L) == 2)
  }

  /** 2DRank's `(rank, k, kstar)` per id against the brute-force sort of
    * the same PageRank and CheiRank scores.
    */
  private def assertMatchesReference(g: repro.graph.DirectedGraph, cfg: PageRank.Config): Unit = {
    val got = TwoDRank.run(g, cfg).select("id", "rank", "k", "kstar").collect()
      .map(r => r.getLong(0) -> ((r.getInt(1), r.getInt(2), r.getInt(3)))).toMap
    val want = Reference.twoDRank(scoresMap(PageRank.run(g, cfg)), scoresMap(CheiRank.run(g, cfg)))
    assert(got == want)
  }

  test("2DRank equals the brute-force sweep on random graphs") {
    for (seed <- 920 until 925) {
      val es = Reference.randomGraph(25, 70, seed)
      assertMatchesReference(graphOfSeq(es), PageRank.Config())
      assertMatchesReference(graphOfSeq(es), PageRank.Config(alpha = 0.3, teleport = Seq(es.head._1)))
    }
  }

  test("2DRank equals the brute-force sweep when scores tie exactly") {
    // A symmetric ring ties every vertex in both rankings. A star with
    // mutual spokes and a tail into the hub ties the spokes in PageRank,
    // and the spokes with the tail in CheiRank.
    val ring = (0L until 6L).flatMap(i => Seq((i, (i + 1) % 6), ((i + 1) % 6, i)))
    val star = (1L to 4L).flatMap(i => Seq((0L, i), (i, 0L))) :+ ((5L, 0L))
    for (es <- Seq(ring, star)) {
      val g = graphOfSeq(es)
      val pr = scoresMap(PageRank.run(g)).values.toSeq
      assert(pr.distinct.size < pr.size, s"no exact tie: $pr")
      assertMatchesReference(g, PageRank.Config())
    }
  }

  test("ranking is a permutation of 1..N") {
    val g = graphOfSeq(Reference.randomGraph(20, 60, seed = 900))
    val r = ranksOf(TwoDRank.run(g, PageRank.Config(maxIter = 15)))
    assert(r.values.toSeq.sorted == (1 to r.size).toSeq)
  }

  test("pseudo-score is the descending reciprocal of the rank") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L))
    val rows = TwoDRank.run(g, PageRank.Config(maxIter = 15)).select("rank", "score").collect()
    rows.foreach(r => assertClose(r.getDouble(1), 1.0 / r.getInt(0), 1e-12))
  }

  test("deterministic across repeated runs") {
    val g = graphOfSeq(Reference.randomGraph(15, 45, seed = 910))
    val cfg = PageRank.Config(maxIter = 15)
    assert(ranksOf(TwoDRank.run(g, cfg)) == ranksOf(TwoDRank.run(g, cfg)))
  }

  test("personalized 2DRank ranks the reference first") {
    val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L), (1L, 3L), (3L, 2L))
    val r = ranksOf(TwoDRank.run(g, PageRank.Config(alpha = 0.5, maxIter = 20, teleport = Seq(2L))))
    assert(r(2L) == 1, s"reference tops both PPR and personalized CheiRank: $r")
  }

  test("carries the underlying K and K* columns") {
    val g = graphOf((1L, 2L), (2L, 1L))
    val cols = TwoDRank.run(g, PageRank.Config(maxIter = 10)).columns.toSet
    assert(Set("id", "score", "rank", "k", "kstar").subsetOf(cols))
  }
}

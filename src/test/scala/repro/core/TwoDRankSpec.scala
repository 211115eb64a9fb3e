package repro.core

import repro.SparkSpec

/** 2DRank: square-sweep construction over the (K, K*) plane. */
class TwoDRankSpec extends SparkSpec with GraphTestKit {

  /** The 2DRank position of each id, read back from `run`'s `1/rank`. */
  private def ranksOf(s: Scores): Map[Long, Int] =
    s.ids.zip(s.values.map(v => math.round(1 / v).toInt)).toMap

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

  /** `combine`'s `(rank, k, kstar)` per id for the graph's PageRank and
    * CheiRank under `cfg`.
    */
  private def sweepOf(g: repro.graph.DirectedGraph, cfg: PageRank.Config): Map[Long, (Int, Int, Int)] = {
    val (pr, chei) = (PageRank.run(g, cfg), CheiRank.run(g, cfg))
    val s = TwoDRank.combine(pr.values, chei.values)
    s.order.zipWithIndex.map { case (v, p) => pr.ids(v) -> ((p + 1, s.k(v), s.kstar(v))) }.toMap
  }

  /** 2DRank's `(rank, k, kstar)` per id against the brute-force sort of
    * the same PageRank and CheiRank scores, and `run`'s ranks against it.
    */
  private def assertMatchesReference(g: repro.graph.DirectedGraph, cfg: PageRank.Config): Unit = {
    val got = sweepOf(g, cfg)
    val want = Reference.twoDRank(scoresMap(PageRank.run(g, cfg)), scoresMap(CheiRank.run(g, cfg)))
    assert(got == want)
    assert(ranksOf(TwoDRank.run(g, cfg)) == got.map { case (id, (rank, _, _)) => id -> rank })
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
    val values = TwoDRank.run(g, PageRank.Config(maxIter = 15)).values
    assert(values.sorted.reverse.toSeq == (1 to values.length).map(1.0 / _))
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

  test("run's values are 1/rank from combine, in id order") {
    val es = Reference.randomGraph(20, 60, seed = 930)
    for (cfg <- Seq(PageRank.Config(), PageRank.Config(alpha = 0.3, teleport = Seq(es.head._1)))) {
      val g = graphOfSeq(es)
      val s = TwoDRank.run(g, cfg)
      val rank = sweepOf(g, cfg)
      assert(s.ids.toSeq == rank.keys.toSeq.sorted)
      assert(s.ids.indices.forall(i => s.values(i) == 1.0 / rank(s.ids(i))._1), s.values.toSeq)
    }
  }
}

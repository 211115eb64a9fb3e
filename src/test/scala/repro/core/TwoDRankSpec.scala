package repro.core

import repro.SparkSpec

/** 2DRank: square-sweep construction over the (K, K*) plane. */
class TwoDRankSpec extends SparkSpec with GraphTestKit {

  private def ranksOf(df: org.apache.spark.sql.DataFrame): Map[Long, Int] =
    df.select("id", "rank").collect().map(r => r.getLong(0) -> r.getInt(1)).toMap

  test("node best in both rankings is 2DRank #1") {
    import spark.implicits._
    val pr   = Seq((1L, 0.5), (2L, 0.3), (3L, 0.2)).toDF("id", "score")
    val chei = Seq((1L, 0.6), (2L, 0.1), (3L, 0.3)).toDF("id", "score")
    val r = ranksOf(TwoDRank.combine(pr, chei))
    assert(r(1L) == 1)
  }

  test("square sweep: L decides before anything else") {
    import spark.implicits._
    // K:  a=1, b=2, c=3 ; K*: a=3, b=1, c=2  →  L: a=3, b=2, c=3
    val pr   = Seq((10L, 0.9), (20L, 0.5), (30L, 0.1)).toDF("id", "score")
    val chei = Seq((10L, 0.1), (20L, 0.9), (30L, 0.5)).toDF("id", "score")
    val r = ranksOf(TwoDRank.combine(pr, chei))
    assert(r(20L) == 1, s"smallest max(K,K*) must lead: $r")
  }

  test("vertical edge (K = L) precedes horizontal at equal L") {
    import spark.implicits._
    // a: (K=2, K*=1) vertical of L=2 ; b: (K=1, K*=2) horizontal of L=2
    val pr   = Seq((1L, 0.9), (2L, 0.5)).toDF("id", "score")
    val chei = Seq((1L, 0.5), (2L, 0.9)).toDF("id", "score")
    val r = ranksOf(TwoDRank.combine(pr, chei))
    assert(r(2L) == 1 && r(1L) == 2)
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

package repro.core

import repro.SparkSpec

/** Scoring functions and ranking utilities. */
class ScoringRankingSpec extends SparkSpec with GraphTestKit {

  test("exponential sigma matches e^-n") {
    for (n <- 2 to 8) assertClose(Scoring.Exponential.sigma(n), math.exp(-n), 1e-15)
  }

  test("linear and quadratic sigmas") {
    assertClose(Scoring.Linear.sigma(4), 0.25, 1e-15)
    assertClose(Scoring.Quadratic.sigma(4), 0.0625, 1e-15)
    assertClose(Scoring.Constant.sigma(7), 1.0, 1e-15)
  }

  test("all sigmas are positive and non-increasing in n") {
    for (s <- Scoring.all; n <- 2 to 9) {
      assert(s.sigma(n) > 0)
      assert(s.sigma(n + 1) <= s.sigma(n) + 1e-15)
    }
  }

  test("byName round-trips and rejects unknowns") {
    for (s <- Scoring.all) assert(Scoring.byName(s.name) == s)
    intercept[IllegalArgumentException](Scoring.byName("nope"))
  }

  /** The rank of each id under `Ranking.order`, from 1, the scores given by id. */
  private def ranked(scores: Map[Long, Double]): Map[Long, Int] = {
    val ids = scores.keys.toArray.sorted
    Ranking.order(ids.map(scores)).zipWithIndex.map { case (v, p) => ids(v) -> (p + 1) }.toMap
  }

  test("Ranking.order assigns 1-based dense positions by descending score") {
    assert(ranked(Map(1L -> 0.1, 2L -> 0.9, 3L -> 0.5)) == Map(2L -> 1, 3L -> 2, 1L -> 3))
  }

  test("Ranking.order breaks ties by ascending id") {
    assert(ranked(Map(9L -> 0.5, 3L -> 0.5, 5L -> 0.5)) == Map(3L -> 1, 5L -> 2, 9L -> 3))
    assert(ranked(Map(9L -> 0.5, 3L -> 0.2, 5L -> 0.5, 1L -> 0.2)) == Map(5L -> 1, 9L -> 2, 1L -> 3, 3L -> 4))
  }

  test("topK returns k best pairs in order") {
    import spark.implicits._
    val df = Seq((1L, 0.1), (2L, 0.9), (3L, 0.5), (4L, 0.7)).toDF("id", "score")
    assert(TopK.ids(df, 2) == Seq(2L, 4L))
    assert(TopK(df, 1) == Seq((2L, 0.9)))
  }

  test("topKOverlap and topKJaccard behave on disjoint and equal sets") {
    import spark.implicits._
    val a = Seq((1L, 1.0), (2L, 0.9)).toDF("id", "score")
    val b = Seq((3L, 1.0), (4L, 0.9)).toDF("id", "score")
    assertClose(TopK.overlap(a, b, 2), 0.0, 1e-15)
    assertClose(TopK.overlap(a, a, 2), 1.0, 1e-15)
    assertClose(TopK.jaccard(a, b, 2), 0.0, 1e-15)
    assertClose(TopK.jaccard(a, a, 2), 1.0, 1e-15)
  }
}

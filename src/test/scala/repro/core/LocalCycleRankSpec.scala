package repro.core

import repro.SparkSpec

/** CycleRank's kernel on an edge list: agreement with brute force and with
  * the engine on a graph, plus its DFS step budget.
  */
class LocalCycleRankSpec extends SparkSpec with GraphTestKit {

  for (seed <- 1 to 8) {
    test(s"agrees with brute-force reference seed=$seed") {
      val es  = Reference.randomReciprocalGraph(n = 16, m = 50, seed = 600 + seed)
      val ref = es.head._1
      val got = LocalCycleRank.runOnEdges(es, ref, CycleRank.Config(4))
      val exp = Reference.cycleRank(es, ref, 4)
      assertMapsClose(got, exp, 1e-10)
    }
  }

  for (seed <- 1 to 4) {
    test(s"agrees with the distributed engine seed=$seed") {
      val es  = Reference.randomReciprocalGraph(n = 18, m = 60, seed = 700 + seed)
      val g   = graphOfSeq(es)
      val ref = es.head._1
      val loc  = LocalCycleRank.runOnEdges(es, ref, CycleRank.Config(4))
      val dist = scoresMap(CycleRank.run(g, ref, CycleRank.Config(4)))
      assertMapsClose(loc, dist, 1e-10)
    }
  }

  test("empty result when the reference has no cycles") {
    val s = LocalCycleRank.runOnEdges(Seq((1L, 2L), (2L, 3L)), 1L, CycleRank.Config(3))
    assert(s.isEmpty)
    assert(LocalCycleRank.runOnEdges(Seq((1L, 2L), (2L, 1L)), 9L, CycleRank.Config(3)).isEmpty,
      "a reference on no edge")
  }

  test("dedups and drops self-loops like the distributed engine") {
    val es = Seq((1L, 2L), (1L, 2L), (2L, 1L), (1L, 1L))
    val s = LocalCycleRank.runOnEdges(es, 1L, CycleRank.Config(3))
    assertClose(s(1L), e(2)); assertClose(s(2L), e(2))
  }

  test("scores do not depend on edge order") {
    val es  = Reference.randomReciprocalGraph(n = 16, m = 60, seed = 811)
    val cfg = CycleRank.Config(5)
    val base = LocalCycleRank.runOnEdges(es, es.head._1, cfg)
    assert(base.nonEmpty)
    for (seed <- 1 to 3) {
      val shuffled = new scala.util.Random(seed).shuffle(es)
      assert(LocalCycleRank.runOnEdges(shuffled, es.head._1, cfg) == base)
    }
  }

  test("scoring function is honoured") {
    val es = Seq((1L, 2L), (2L, 1L))
    val s = LocalCycleRank.runOnEdges(es, 1L, CycleRank.Config(2, Scoring.Constant))
    assertClose(s(1L), 1.0)
  }

  test("DFS step budget: the exact extension count passes, one less fails") {
    // In the complete digraph on m vertices the DFS extends every simple
    // path from r of l < K edges, and there are (m-1)!/(m-1-l)! of them.
    for ((m, k) <- Seq((6, 5), (5, 4), (4, 2))) {
      val es = for (i <- 0L until m; j <- 0L until m if i != j) yield (i, j)
      val steps = (1 until k).map(l => (m - l until m).map(_.toLong).product).sum
      val cfg = CycleRank.Config(k, Scoring.Constant)
      assert(LocalCycleRank.runOnEdges(es, 0L, cfg, maxSteps = steps) ==
        LocalCycleRank.runOnEdges(es, 0L, cfg))
      val ex = intercept[IllegalArgumentException](
        LocalCycleRank.runOnEdges(es, 0L, cfg, maxSteps = steps - 1))
      Seq("reference 0", s"K=$k", s"budget of ${steps - 1} DFS steps", s"reached $steps")
        .foreach(w => assert(ex.getMessage.contains(w), ex.getMessage))
    }
  }
}

package repro.core

import repro.SparkSpec

/** Personalized PageRank: teleport concentration, reachability, dense
  * reference, multi-reference teleport sets.
  */
class PersonalizedPageRankSpec extends SparkSpec with GraphTestKit {

  test("alpha = 0 puts all mass on the reference") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.0, teleport = Seq(1L))))
    assertClose(s(1L), 1.0, 1e-12)
    assertClose(s(2L), 0.0, 1e-12)
  }

  test("reference gets the highest score at moderate alpha") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L), (3L, 2L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.5, maxIter = 25, teleport = Seq(2L))))
    assert(s(2L) == s.values.max)
  }

  test("vertices unreachable from the reference score zero") {
    val g = graphOf((1L, 2L), (2L, 1L), (3L, 4L), (4L, 3L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 20, teleport = Seq(1L))))
    assertClose(s(3L), 0.0, 1e-12)
    assertClose(s(4L), 0.0, 1e-12)
    assert(s(1L) > 0 && s(2L) > 0)
  }

  test("scores sum to 1 (dangling mass returns to the reference)") {
    val g = graphOf((1L, 2L), (2L, 3L)) // 3 dangling
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 20, teleport = Seq(1L))))
    assertClose(s.values.sum, 1.0, 1e-9)
  }

  test("closer vertices score higher on a chain") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.5, maxIter = 25, teleport = Seq(1L))))
    assert(s(1L) > s(2L) && s(2L) > s(3L) && s(3L) > s(4L), s"chain decay violated: $s")
  }

  for (seed <- 1 to 6) {
    test(s"matches dense reference on random graph seed=$seed") {
      val es = Reference.randomGraph(n = 30, m = 120, seed = 200 + seed)
      val g  = graphOfSeq(es)
      val verts = g.vertices.collect().map(_.getLong(0)).toSeq
      val ref = verts.min
      val got = scoresMap(PageRank.run(g,
        PageRank.Config(alpha = 0.6, maxIter = 20, tol = 0.0, teleport = Seq(ref))))
      val exp = Reference.pageRank(es, verts, alpha = 0.6, teleport = Seq(ref), iters = 20)
      assertMapsClose(got, exp, 1e-8)
    }
  }

  test("multi-reference teleport splits mass over the set") {
    val g = graphOf((1L, 2L), (2L, 1L), (3L, 4L), (4L, 3L))
    val s = scoresMap(PageRank.run(g,
      PageRank.Config(alpha = 0.85, maxIter = 20, teleport = Seq(1L, 3L))))
    // two symmetric components, each teleported with probability 1/2
    assertClose(s(1L), s(3L), 1e-9)
    assertClose(s(2L), s(4L), 1e-9)
    assertClose(s.values.sum, 1.0, 1e-9)
  }

  test("a duplicated teleport id counts once") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L))
    def ppr(refs: Seq[Long]) =
      scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 20, teleport = refs)))
    assert(ppr(Seq(3L, 3L)) == ppr(Seq(3L)))
  }

  test("teleport vertex absent from the graph is rejected") {
    val g = graphOf((1L, 2L), (2L, 1L))
    intercept[IllegalArgumentException] {
      PageRank.run(g, PageRank.Config(teleport = Seq(42L)))
    }
  }

  test("lower alpha concentrates more mass near the reference") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (2L, 1L))
    val cfg = PageRank.Config(maxIter = 25, teleport = Seq(1L))
    val tight = scoresMap(PageRank.run(g, cfg.copy(alpha = 0.3)))
    val loose = scoresMap(PageRank.run(g, cfg.copy(alpha = 0.85)))
    assert(tight(1L) > loose(1L))
  }
}

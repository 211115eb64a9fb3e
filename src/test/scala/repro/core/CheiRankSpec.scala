package repro.core

import repro.SparkSpec

/** CheiRank = PageRank on the transposed graph, plus personalized variant. */
class CheiRankSpec extends SparkSpec with GraphTestKit {

  test("equals PageRank of the transpose by construction") {
    val g = graphOfSeq(Reference.randomGraph(20, 70, seed = 800))
    val cfg = PageRank.Config(maxIter = 15, tol = 0.0)
    assertMapsClose(scoresMap(CheiRank.run(g, cfg)),
                    scoresMap(PageRank.run(g.transpose, cfg)), 0.0)
  }

  test("out-hub dominates CheiRank where in-hub dominates PageRank") {
    val inHub  = (1L to 6L).map(i => (i, 100L))
    val outHub = (1L to 6L).map(i => (200L, i))
    val g = graphOfSeq(inHub ++ outHub)
    val pr = scoresMap(PageRank.run(g, PageRank.Config(maxIter = 20)))
    val ch = scoresMap(CheiRank.run(g, PageRank.Config(maxIter = 20)))
    assert(pr(100L) == pr.values.max, "in-hub tops PR")
    assert(ch(200L) == ch.values.max, "out-hub tops CheiRank")
  }

  test("matches dense reference on the reversed edge list") {
    val es = Reference.randomGraph(25, 90, seed = 810)
    val g  = graphOfSeq(es)
    val verts = g.vertices.collect().map(_.getLong(0)).toSeq
    val got = scoresMap(CheiRank.run(g, PageRank.Config(maxIter = 20, tol = 0.0)))
    val exp = Reference.pageRank(es.map(e => (e._2, e._1)), verts, alpha = 0.85, iters = 20)
    assertMapsClose(got, exp, 1e-8)
  }

  test("scores sum to 1") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L))
    assertClose(scoresMap(CheiRank.run(g, PageRank.Config(maxIter = 20))).values.sum,
      1.0, 1e-9)
  }

  test("personalized CheiRank follows out-links from the reference") {
    // 1 -> 2 -> 3; personalized CheiRank from 3 walks the transpose 3->2->1.
    val g = graphOf((1L, 2L), (2L, 3L))
    val s = scoresMap(CheiRank.run(g, PageRank.Config(alpha = 0.5, maxIter = 25, teleport = Seq(3L))))
    assert(s(3L) > s(2L) && s(2L) > s(1L), s"transpose chain decay violated: $s")
  }
}

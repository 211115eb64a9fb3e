package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec

/** Property-based invariants over ScalaCheck-generated random graphs.
  * Samples are drawn deterministically (fixed seeds) and kept small
  * because each check spins Spark jobs.
  */
class PropertySpec extends SparkSpec with GraphTestKit {

  /** Draw n deterministic samples from a generator. */
  private def samples[A](g: Gen[A], n: Int, seed: Long): Seq[A] =
    (0 until n).flatMap(i => g.apply(Gen.Parameters.default, Seed(seed + i)))

  private val graphGen: Gen[Seq[(Long, Long)]] = for {
    n <- Gen.choose(4, 12)
    m <- Gen.choose(n, 4 * n)
    s <- Gen.choose(0L, 100000L)
  } yield Reference.randomReciprocalGraph(n, m, s)

  test("PageRank scores are a probability distribution") {
    for (es <- samples(graphGen, 5, seed = 1) if es.nonEmpty) {
      val s = scoresMap(PageRank.run(graphOfSeq(es), PageRank.Config(maxIter = 15)))
      assert(s.values.forall(v => v >= 0 && v <= 1 + 1e-12), s"out of range: $s")
      assertClose(s.values.sum, 1.0, 1e-6)
    }
  }

  test("CycleRank scores are positive and the reference is maximal") {
    for (es <- samples(graphGen, 5, seed = 2) if es.nonEmpty) {
      val ref = es.head._1
      val s = scoresMap(CycleRank.run(graphOfSeq(es), ref, CycleRank.Config(3)))
      assert(s.values.forall(_ > 0))
      if (s.nonEmpty) assert(s(ref) == s.values.max)
    }
  }

  test("CheiRank of a graph equals PageRank of its transpose") {
    for (es <- samples(graphGen, 4, seed = 3) if es.nonEmpty) {
      val g = graphOfSeq(es)
      val cfg = PageRank.Config(maxIter = 15, tol = 0.0)
      assertMapsClose(scoresMap(CheiRank.run(g, cfg)),
                      scoresMap(PageRank.run(g.transpose, cfg)), 1e-9)
    }
  }

  test("PPR on a mutual ring is symmetric around the reference") {
    for (n <- samples(Gen.choose(3, 7), 4, seed = 4)) {
      val es = (0 until n).flatMap { i =>
        val j = (i + 1) % n
        Seq((i.toLong, j.toLong), (j.toLong, i.toLong))
      }
      val s = scoresMap(PageRank.run(graphOfSeq(es),
        PageRank.Config(alpha = 0.7, maxIter = 20, teleport = Seq(0L))))
      for (d <- 1 until (n + 1) / 2)
        assertClose(s(d.toLong), s((n - d).toLong), 1e-8)
    }
  }

  test("2DRank output is always a permutation of 1..N") {
    for (es <- samples(graphGen, 4, seed = 5) if es.nonEmpty) {
      val r = TwoDRank.run(graphOfSeq(es), PageRank.Config(maxIter = 12))
        .values.map(v => math.round(1 / v).toInt).sorted.toSeq
      assert(r == (1 to r.size).toSeq)
    }
  }

  test("CycleRank equals brute force on generated graphs") {
    for (es <- samples(graphGen, 5, seed = 6) if es.nonEmpty) {
      val ref = es.head._1
      val got = scoresMap(CycleRank.run(graphOfSeq(es), ref, CycleRank.Config(4)))
      assertMapsClose(got, Reference.cycleRank(es, ref, 4), 1e-10)
    }
  }
}

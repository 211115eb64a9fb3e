package repro.data

import repro.SparkSpec
import repro.core.{GraphTestKit, PageRank, TopK}

/** Scale-parameterised generators: determinism, size scaling, skew and
  * reciprocity profiles, and the paper's central "popularity leakage"
  * shape on generated (not hand-planted) graphs.
  */
class SyntheticGraphsSpec extends SparkSpec with GraphTestKit {

  test("nVertices scales with sf and has a floor") {
    assert(SyntheticGraphs.nVertices(0.1) == 20000)
    assert(SyntheticGraphs.nVertices(1e-9) == 500)
  }

  test("wikilinkLike is deterministic in (sf, seed)") {
    val a = SyntheticGraphs.wikilinkLike(spark, 0.005)
    val b = SyntheticGraphs.wikilinkLike(spark, 0.005)
    assert(a.edges.count() == b.edges.count())
    assert(a.edges.except(b.edges).isEmpty)
  }

  test("wikilinkLike at sf=0.01 keeps its edge count and edge-set checksum") {
    // Recorded before the zipf generator moved here from the removed
    // TPC-H-lite tables; the benchmark's cr-small graph is this one.
    import org.apache.spark.sql.functions._
    val r = SyntheticGraphs.wikilinkLike(spark, 0.01).edges
      .agg(count(lit(1)), bit_xor(xxhash64(col("src"), col("dst")))).head()
    assert((r.getLong(0), r.getLong(1)) == (11136L, 2580846679303264625L))
  }

  test("zipf keys are skewed toward small ranks") {
    import org.apache.spark.sql.functions.col
    val keys = SyntheticGraphs.zipfKeys(spark, rows = 5000, nKeys = 1000)
    val top = keys.where(col("k") <= 10).count().toDouble
    assert(top / 5000 > 0.3, s"zipf head share ${top / 5000}")
  }

  test("different seeds give different graphs") {
    val a = SyntheticGraphs.wikilinkLike(spark, 0.005, seed = 1)
    val b = SyntheticGraphs.wikilinkLike(spark, 0.005, seed = 2)
    assert(a.edges.except(b.edges).count() > 0)
  }

  test("graphs are simple: no self-loops, no duplicate edges") {
    import org.apache.spark.sql.functions.col
    for (g <- Seq(SyntheticGraphs.wikilinkLike(spark, 0.005),
                  SyntheticGraphs.copurchaseLike(spark, 0.005),
                  SyntheticGraphs.twitterLike(spark, 0.005))) {
      assert(g.edges.where(col("src") === col("dst")).count() == 0)
      assert(g.edges.count() == g.edges.distinct().count())
    }
  }

  test("in-degree is heavy-tailed: top 1% of nodes holds >10% of in-links") {
    val g = SyntheticGraphs.wikilinkLike(spark, 0.01)
    import org.apache.spark.sql.functions._
    val indeg = inDegrees(g).orderBy(col("indeg").desc)
    val n = indeg.count()
    val top = indeg.limit(math.max(1, (n / 100).toInt))
      .agg(sum("indeg")).head().getLong(0).toDouble
    val total = indeg.agg(sum("indeg")).head().getLong(0).toDouble
    assert(top / total > 0.10, s"top-1% share ${top / total}")
  }

  test("copurchaseLike is more reciprocal than twitterLike") {
    def reciprocity(g: repro.graph.DirectedGraph): Double =
      reciprocalEdges(g).count().toDouble / g.numEdges
    val co = reciprocity(SyntheticGraphs.copurchaseLike(spark, 0.005))
    val tw = reciprocity(SyntheticGraphs.twitterLike(spark, 0.005))
    assert(co > tw, s"copurchase reciprocity $co should exceed twitter $tw")
  }

  test("popularity leakage: PPR overlaps global PR more than CycleRank does") {
    // The paper's central qualitative claim, on a generated graph: pick a
    // mid-popularity reference inside a community; PPR's top-10 shares
    // more nodes with global PageRank's top-10 than CycleRank's top-10.
    val g = SyntheticGraphs.wikilinkLike(spark, 0.005)
    val pr = PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 15, tol = 1e-6))
    // deterministic reference: a reciprocally-linked node far from the
    // zipf-popular low ids, i.e. inside an ordinary community block
    import org.apache.spark.sql.functions.{col, min}
    val n = SyntheticGraphs.nVertices(0.005)
    val ref = reciprocalEdges(g).where(col("src") > n / 2)
      .agg(min("src")).head().getLong(0)
    val ppr = PageRank.run(g,
      PageRank.Config(alpha = 0.85, maxIter = 15, tol = 1e-6, teleport = Seq(ref)))
    val cr  = repro.core.CycleRank.run(g, ref, repro.core.CycleRank.Config(3))
    val pprLeak = TopK.overlap(ppr, pr, 10)
    val crLeak  = TopK.overlap(cr, pr, 10)
    assert(pprLeak > crLeak,
      s"PPR leakage $pprLeak should exceed CR leakage $crLeak")
  }
}

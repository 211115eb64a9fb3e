package repro.bench

import repro.SparkSpec
import repro.core.{CycleRank, LocalCycleRank, PageRank}
import repro.data.SyntheticGraphs
import repro.graph.GraphOps

/** Scaling bench (not a paper table — supports the demo's "efficient
  * algorithms" claim): runtime of distributed CycleRank, the local DFS
  * baseline, and Personalized PageRank as the graph grows.
  */
class BenchScaling extends SparkSpec {

  private def timeMs[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  test("CycleRank vs local baseline vs PPR across scale factors") {
    val rows = for (sf <- Seq(0.01, 0.03, 0.1)) yield {
      val g = SyntheticGraphs.wikilinkLike(spark, sf)
      g.edges.cache(); val m = g.numEdges
      val n = g.numVertices
      // deterministic reference inside a reciprocal community block,
      // away from the zipf-popular low ids
      val ref = GraphOps.reciprocalEdges(g)
        .where(org.apache.spark.sql.functions.col("src") > n / 2)
        .agg(org.apache.spark.sql.functions.min("src")).head().getLong(0)
      val (crD, tCrD) = timeMs(
        CycleRank.run(g, ref, CycleRank.Config(3)).count())
      val (crL, tCrL) = timeMs(LocalCycleRank.run(g, ref, CycleRank.Config(3)).size)
      val (_, tPpr) = timeMs(
        PageRank.run(g, PageRank.Config(maxIter = 20, tol = 1e-6, teleport = Seq(ref))).count())
      g.edges.unpersist()
      f"| $sf%5.2f | $n%8d | $m%9d | $tCrD%8d | $tCrL%8d | $tPpr%8d | $crD%6d | $crL%6d |"
    }
    println("SCALING — distributed CR vs local CR vs PPR (times in ms)")
    println("|    sf |    nodes |     edges | CR-spark | CR-local |      PPR | CR |V>0| local |")
    rows.foreach(println)
    assert(rows.size == 3)
  }

  test("distributed and local CycleRank agree at bench scale") {
    val g = SyntheticGraphs.wikilinkLike(spark, 0.01)
    val n = g.numVertices
    val ref = GraphOps.reciprocalEdges(g)
      .where(org.apache.spark.sql.functions.col("src") > n / 2)
      .agg(org.apache.spark.sql.functions.min("src")).head().getLong(0)
    val d = CycleRank.run(g, ref, CycleRank.Config(3))
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val l = LocalCycleRank.run(g, ref, CycleRank.Config(3))
    val keys = d.keySet ++ l.keySet
    val diff = if (keys.isEmpty) 0.0
               else keys.map(k => math.abs(d.getOrElse(k, 0.0) - l.getOrElse(k, 0.0))).max
    assert(diff < 1e-9, s"engines diverge by $diff")
  }
}

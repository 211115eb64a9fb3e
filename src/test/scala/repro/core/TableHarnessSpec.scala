package repro.core

import repro.{SparkSpec, SparkWork}
import repro.graph.DirectedGraph

/** The tables' top-k label lists. */
class TableHarnessSpec extends SparkSpec with GraphTestKit {

  test("topLabels falls back to the id when no label exists") {
    import spark.implicits._
    val g = DirectedGraph(Seq((1L, 2L)).toDF("src", "dst"),
      Some(Seq((1L, "one")).toDF("id", "label")))
    val scores = Seq((1L, 0.5), (2L, 0.4)).toDF("id", "score")
    assert(TableHarness.topLabels(g, scores, 3) == Seq("one", "2", "–"))
    assert(TableHarness.topLabels(g, scores, 3, excludeRef = Some(1L)) == Seq("2", "–", "–"))
  }

  test("topLabels on PageRank and CycleRank frames of a labelled graph starts no Spark job") {
    val g = DirectedGraph.fromLabeledEdges(spark,
      Seq(("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")))
    val pr = PageRank.run(g)
    val cr = CycleRank.run(g, 0L)
    val work = SparkWork.of(spark) {
      assert(TableHarness.topLabels(g, pr, 5).toSet == Set("a", "b", "c", "d", "e"))
      assert(TableHarness.topLabels(g, cr, 5, Some(0L)) == Seq("b", "c", "–", "–", "–"))
    }
    assert(work.jobs == 0, work)
  }
}

package repro.core

import java.nio.file.Files
import scala.jdk.CollectionConverters._
import repro.{SparkSpec, SparkWork}
import repro.experiments.Tables
import repro.graph.DirectedGraph
import repro.platform.Datastore

/** The tables' top-k label lists and label lookups. */
class TableHarnessSpec extends SparkSpec with GraphTestKit {

  test("topLabels falls back to the id when no label exists") {
    import spark.implicits._
    val g = DirectedGraph(Seq((1L, 2L)).toDF("src", "dst"),
      Some(Seq((1L, "one")).toDF("id", "label")))
    val scores = new Scores(Array(1L, 2L), Array(0.5, 0.4))
    assert(TableHarness.topLabels(g, scores, 3) == Seq("one", "2", "–"))
    assert(TableHarness.topLabels(g, scores, 3, excludeRef = Some(1L)) == Seq("2", "–", "–"))
    // The frame form collects into scores and gives the same list.
    assert(TableHarness.topLabels(g, Seq((2L, 0.4), (1L, 0.5)).toDF("id", "score"), 3) == Seq("one", "2", "–"))
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

    // Checkpointed frames, as perfbench's table1 graph holds them: once the
    // index is built, the label reads and the upload start no job either.
    val cp = DirectedGraph(g.edges.localCheckpoint(eager = true),
                           g.labels.map(_.localCheckpoint(eager = true)))
    cp.index
    val top2 = TableHarness.topLabels(g, pr, 2)
    val store = Datastore.temp(spark)
    val jobs = Seq[(String, () => Any)](
        "topLabels" -> (() => assert(TableHarness.topLabels(cp, pr, 2) == top2)),
        "idOf" -> (() => assert(Tables.idOf(cp, "c") == 2L)),
        "putDataset" -> (() => store.putDataset("cp", cp)))
      .map { case (call, f) => call -> SparkWork.of(spark)(f()).jobs }
    assert(jobs.forall(_._2 == 0), jobs)
  }

  test("a labels frame that gives one id two labels fails the index build, naming the id") {
    import spark.implicits._
    val g = DirectedGraph(Seq((1L, 2L), (2L, 3L)).toDF("src", "dst"),
      Some(Seq((1L, "a"), (2L, "b"), (2L, "c")).toDF("id", "label")))
    val scores = new Scores(Array(1L, 2L), Array(0.5, 0.4))
    for (call <- Seq(() => TableHarness.topLabels(g, scores, 2), () => Tables.idOf(g, "b"))) {
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("vertex 2 has two labels"), e.getMessage)
    }
  }

  test("idOf of a label that two vertices carry fails, naming the label and both ids") {
    val net = Files.write(Files.createTempDirectory("upload").resolve("dup.net"),
      Seq("*Vertices 3", "1 \"b\"", "2 \"a\"", "3 \"a\"", "*Arcs", "1 2", "2 3").asJava)
    val store = Datastore.temp(spark)
    store.uploadDataset("dup", net)
    val g = store.loadDataset("dup")
    assert(Tables.idOf(g, "b") == 1L)
    val e = intercept[IllegalArgumentException](Tables.idOf(g, "a"))
    assert(e.getMessage.contains("label 'a'") && e.getMessage.contains("2, 3"), e.getMessage)
  }
}

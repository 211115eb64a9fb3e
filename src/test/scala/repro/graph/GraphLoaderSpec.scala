package repro.graph

import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import repro.{SparkSpec, SparkWork}
import repro.core.GraphTestKit
import repro.platform.Datastore

/** Loaders for the demo's three upload formats. */
class GraphLoaderSpec extends SparkSpec with GraphTestKit {

  private def tmpFile(name: String, lines: Seq[String]): Path = {
    val dir = Files.createTempDirectory("loader")
    val f = dir.resolve(name)
    Files.write(f, lines.asJava)
    f
  }

  private def edgeSet(g: DirectedGraph): Set[(Long, Long)] =
    g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("edgelist CSV: comma separated") {
    val f = tmpFile("g.csv", Seq("1,2", "2,3", "3,1"))
    assert(edgeSet(GraphLoader.edgeListCsv(spark, f.toString)) ==
      Set((1L, 2L), (2L, 3L), (3L, 1L)))
  }

  test("edgelist CSV: whitespace and semicolon separators, comments, blanks") {
    val f = tmpFile("g.csv", Seq("# a comment", "", "1 2", "2;3", "3\t1", "+3,+4"))
    assert(edgeSet(GraphLoader.edgeListCsv(spark, f.toString)) ==
      Set((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L)))
  }

  test("edgelist CSV: duplicates and self-loops are cleaned") {
    val f = tmpFile("g.csv", Seq("1,2", "1,2", "5,5"))
    assert(edgeSet(GraphLoader.edgeListCsv(spark, f.toString)) == Set((1L, 2L)))
  }

  /** The message of the `IllegalArgumentException` that `load` throws. */
  private def rejection(load: => DirectedGraph): String =
    intercept[IllegalArgumentException](load).getMessage

  test("edgelist CSV: non-numeric endpoint is rejected") {
    for (bad <- Seq("x", "1.5", "0x10")) {
      val f = tmpFile("g.csv", Seq("1,2", s"$bad,3"))
      val msg = rejection(GraphLoader.edgeListCsv(spark, f.toString))
      assert(msg.contains(s"edgelist $f contains non-numeric endpoints"), msg)
      assert(msg.contains(s"line 2: '$bad,3'"), msg)
    }
  }

  test("pajek: vertices with labels and arcs") {
    val f = tmpFile("g.net", Seq(
      "*Vertices 3",
      "1 \"alpha\"",
      "2 \"beta\"",
      "3 \"gamma\"",
      "*Arcs",
      "1 2",
      "2 3"))
    val g = GraphLoader.pajek(spark, f.toString)
    assert(edgeSet(g) == Set((1L, 2L), (2L, 3L)))
    val labels = g.labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(1L -> "alpha", 2L -> "beta", 3L -> "gamma"))
  }

  test("pajek: *Edges section is loaded in both directions") {
    val f = tmpFile("g.net", Seq(
      "*Vertices 2", "1 \"a\"", "2 \"b\"", "*Edges", "1 2"))
    assert(edgeSet(GraphLoader.pajek(spark, f.toString)) == Set((1L, 2L), (2L, 1L)))
  }

  test("pajek: arcs and edges sections combine") {
    val f = tmpFile("g.net", Seq(
      "*Vertices 3", "1 \"a\"", "2 \"b\"", "3 \"c\"",
      "*Arcs", "1 2", "*Edges", "2 3"))
    assert(edgeSet(GraphLoader.pajek(spark, f.toString)) ==
      Set((1L, 2L), (2L, 3L), (3L, 2L)))
  }

  test("pajek: unlabeled vertex falls back to its id") {
    val f = tmpFile("g.net", Seq("*Vertices 2", "1", "2 \"b\"", "*Arcs", "1 2"))
    val labels = GraphLoader.pajek(spark, f.toString)
      .labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(1L -> "1", 2L -> "b"))
  }

  test("pajek: case-insensitive markers and % comments") {
    val f = tmpFile("g.net", Seq(
      "% generated", "*vertices 2", "1 \"a\"", "2 \"b\"", "*arcs", "1 2"))
    assert(edgeSet(GraphLoader.pajek(spark, f.toString)) == Set((1L, 2L)))
  }

  test("pajek: non-numeric arc endpoint is rejected naming the file") {
    val f = tmpFile("g.net", Seq("*Vertices 2", "1 \"a\"", "2 \"b\"", "*Arcs", "1 x"))
    val msg = rejection(GraphLoader.pajek(spark, f.toString))
    assert(msg.contains(s"pajek $f contains non-numeric endpoints"), msg)
    assert(msg.contains("line 5: '1 x'"), msg)
  }

  test("pajek: a vertex id declared twice is rejected naming the file and both lines") {
    val f = tmpFile("g.net", Seq(
      "*Vertices 3", "1 \"a\"", "1 \"b\"", "2 \"c\"", "*Arcs", "1 2"))
    val msg = rejection(GraphLoader.pajek(spark, f.toString))
    assert(msg.contains(s"pajek $f") && msg.contains("line 2") && msg.contains("line 3: '1 \"b\"'"),
      msg)
  }

  test("pajek: a repeated *Arcs or *Edges marker starts another section of that kind") {
    val arcs = tmpFile("g.net", Seq(
      "*Vertices 3", "*Arcs :1 \"likes\"", "1 2", "*Arcs :2 \"cites\"", "2 3"))
    assert(edgeSet(GraphLoader.pajek(spark, arcs.toString)) == Set((1L, 2L), (2L, 3L)))
    val mixed = tmpFile("g.net", Seq(
      "*Vertices 3", "*Edges", "1 2", "*Arcs", "2 3", "*Edges", "3 1"))
    assert(edgeSet(GraphLoader.pajek(spark, mixed.toString)) ==
      Set((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L), (1L, 3L)))
  }

  test("pajek: *Vertices N declares vertices 1..N, unlisted ones labelled with their id") {
    val f = tmpFile("g.net", Seq("*Vertices 4", "1 \"a\"", "3 \"c\"", "*Arcs", "1 3"))
    val g = GraphLoader.pajek(spark, f.toString)
    assert(g.numVertices == 4)
    val labels = g.labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(1L -> "a", 2L -> "2", 3L -> "c", 4L -> "4"))
  }

  test("pajek: an arc or vertex id outside 1..N is rejected naming the file and the line") {
    for ((lines, bad) <- Seq(
        Seq("*Vertices 3", "1 \"a\"", "*Arcs", "1 2", "7 1") -> "line 5: '7 1'",
        Seq("*Vertices 3", "*Edges", "0 1") -> "line 3: '0 1'",
        Seq("*Vertices 2", "1 \"a\"", "3 \"c\"") -> "line 3: '3 \"c\"'")) {
      val f = tmpFile("g.net", lines)
      val msg = rejection(GraphLoader.pajek(spark, f.toString))
      assert(msg.contains(s"pajek $f") && msg.contains("outside 1..") && msg.contains(bad), msg)
    }
  }

  test("pajek: a *Vertices line without a vertex count is rejected") {
    val f = tmpFile("g.net", Seq("*Vertices", "1 \"a\"", "*Arcs", "1 1"))
    val msg = rejection(GraphLoader.pajek(spark, f.toString))
    assert(msg.contains(s"pajek $f") && msg.contains("line 1: '*Vertices'"), msg)
  }

  test("pajek: missing *Vertices is rejected") {
    val f = tmpFile("g.net", Seq("*Arcs", "1 2"))
    intercept[IllegalArgumentException](GraphLoader.pajek(spark, f.toString))
  }

  test("asd: header plus 0-based edges") {
    val f = tmpFile("g.asd", Seq("4 3", "0 1", "1 2", "2 0"))
    assert(edgeSet(GraphLoader.asd(spark, f.toString)) ==
      Set((0L, 1L), (1L, 2L), (2L, 0L)))
  }

  test("asd: leading blank lines before the header") {
    val f = tmpFile("g.asd", Seq("", "  ", "3 2", "0 1", "", "1 2"))
    assert(edgeSet(GraphLoader.asd(spark, f.toString)) == Set((0L, 1L), (1L, 2L)))
  }

  test("asd: wrong edge count is rejected") {
    val f = tmpFile("g.asd", Seq("4 5", "0 1", "1 2"))
    intercept[IllegalArgumentException](GraphLoader.asd(spark, f.toString))
  }

  test("asd: endpoint outside the declared range is rejected") {
    val f = tmpFile("g.asd", Seq("2 1", "0 5"))
    intercept[IllegalArgumentException](GraphLoader.asd(spark, f.toString))
  }

  test("asd: non-numeric endpoint is rejected naming the file") {
    val f = tmpFile("g.asd", Seq("3 2", "0 1", "1 x"))
    val msg = rejection(GraphLoader.asd(spark, f.toString))
    assert(msg.contains(s"ASD $f contains non-numeric endpoints"), msg)
    assert(msg.contains("line 3: '1 x'"), msg)
  }

  test("asd: isolated vertices declared by N are kept") {
    val f = tmpFile("g.asd", Seq("5 1", "0 1"))
    assert(GraphLoader.asd(spark, f.toString).numVertices == 5)
  }

  test("asd: malformed header is rejected") {
    val f = tmpFile("g.asd", Seq("banana", "0 1"))
    intercept[IllegalArgumentException](GraphLoader.asd(spark, f.toString))
  }

  test("asd: an empty or all-blank file is rejected naming the file") {
    for (lines <- Seq(Seq.empty[String], Seq("", "  ", "\t"))) {
      val f = tmpFile("g.asd", lines)
      val msg = rejection(GraphLoader.asd(spark, f.toString))
      assert(msg.contains(s"ASD $f"), msg)
    }
  }

  test("asd: a negative vertex or edge count is rejected naming the file") {
    for (header <- Seq("-1 0", "3 -1")) {
      val f = tmpFile("g.asd", Seq(header))
      val msg = rejection(GraphLoader.asd(spark, f.toString))
      assert(msg.contains(s"ASD $f") && msg.contains(s"line 1: '$header'"), msg)
    }
  }

  test("the three loaders and a dataset load start no Spark job") {
    val csv = tmpFile("g.csv", Seq("1,2", "2,3", "3,1"))
    val net = tmpFile("g.net", Seq("*Vertices 2", "1 \"a\"", "2 \"b\"", "*Arcs", "1 2"))
    val asd = tmpFile("g.asd", Seq("3 2", "0 1", "1 2"))
    val store = Datastore.temp(spark)
    store.uploadDataset("d", net)
    val jobs = Seq(
      "edgeListCsv" -> SparkWork.of(spark)(GraphLoader.edgeListCsv(spark, csv.toString)).jobs,
      "pajek" -> SparkWork.of(spark)(GraphLoader.pajek(spark, net.toString)).jobs,
      "asd" -> SparkWork.of(spark)(GraphLoader.asd(spark, asd.toString)).jobs,
      "loadDataset" -> SparkWork.of(spark)(store.loadDataset("d")).jobs)
    assert(jobs.forall(_._2 == 0), jobs)
  }

  test("pajek and asd persist no RDD") {
    val net = tmpFile("g.net", Seq("*Vertices 2", "1 \"a\"", "2 \"b\"", "*Arcs", "1 2"))
    val asd = tmpFile("g.asd", Seq("3 2", "0 1", "1 2"))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    assert(GraphLoader.pajek(spark, net.toString).numEdges == 1)
    assert(GraphLoader.asd(spark, asd.toString).numEdges == 2)
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
  }

  test("round-trip: algorithms agree across formats of the same graph") {
    val csv = tmpFile("g.csv", Seq("0,1", "1,0", "1,2", "2,0"))
    val asd = tmpFile("g.asd", Seq("3 4", "0 1", "1 0", "1 2", "2 0"))
    val g1 = GraphLoader.edgeListCsv(spark, csv.toString)
    val g2 = GraphLoader.asd(spark, asd.toString)
    assert(edgeSet(g1) == edgeSet(g2))
    assert(g1.numVertices == g2.numVertices)
    val s1 = scoresMap(repro.core.PageRank.run(g1))
    val s2 = scoresMap(repro.core.PageRank.run(g2))
    assertMapsClose(s1, s2, 1e-10)
  }
}

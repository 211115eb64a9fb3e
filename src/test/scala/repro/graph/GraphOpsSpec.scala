package repro.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SparkWork}
import repro.core.GraphTestKit

/** Graph substrate: cleanup, degrees, transpose, reciprocal edges, BFS —
  * the relational pieces are verified against the DuckDB oracle.
  */
class GraphOpsSpec extends SparkSpec with GraphTestKit {

  test("clean removes self-loops and duplicate edges") {
    import spark.implicits._
    val raw = DirectedGraph(Seq((1L, 2L), (1L, 2L), (2L, 2L), (2L, 3L)).toDF("src", "dst"))
    val g = GraphOps.clean(raw)
    val es = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(es == Set((1L, 2L), (2L, 3L)))
  }

  test("vertices include both endpoints exactly once") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L))
    assert(g.vertices.collect().map(_.getLong(0)).sorted.toSeq == Seq(1L, 2L, 3L))
  }

  test("numVertices / numEdges") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L))
    assert(g.numVertices == 3 && g.numEdges == 4)
  }

  test("transpose reverses every edge and is an involution") {
    val g = graphOf((1L, 2L), (2L, 3L))
    val t = g.transpose.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(t == Set((2L, 1L), (3L, 2L)))
    val tt = g.transpose.transpose.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(tt == Set((1L, 2L), (2L, 3L)))
  }

  test("outDegrees zero-fills dangling vertices (oracle)") {
    val g = graphOf((1L, 2L), (1L, 3L), (2L, 3L))
    Oracle.assertEquivalent(
      GraphOps.outDegrees(g),
      """WITH v AS (SELECT DISTINCT CAST(src AS BIGINT) id FROM edges
        |           UNION SELECT DISTINCT CAST(dst AS BIGINT) FROM edges),
        |d AS (SELECT CAST(src AS BIGINT) id, COUNT(*) c FROM edges GROUP BY 1)
        |SELECT v.id AS id, COALESCE(d.c, 0) AS outdeg
        |FROM v LEFT JOIN d ON v.id = d.id""".stripMargin,
      "edges" -> g.edges)
  }

  test("inDegrees zero-fills sources (oracle)") {
    val g = graphOf((1L, 2L), (1L, 3L), (2L, 3L), (4L, 1L))
    Oracle.assertEquivalent(
      inDegrees(g),
      """WITH v AS (SELECT DISTINCT CAST(src AS BIGINT) id FROM edges
        |           UNION SELECT DISTINCT CAST(dst AS BIGINT) FROM edges),
        |d AS (SELECT CAST(dst AS BIGINT) id, COUNT(*) c FROM edges GROUP BY 1)
        |SELECT v.id AS id, COALESCE(d.c, 0) AS indeg
        |FROM v LEFT JOIN d ON v.id = d.id""".stripMargin,
      "edges" -> g.edges)
  }

  test("reciprocalEdges finds exactly the mutual pairs (oracle)") {
    val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 4L), (4L, 3L))
    Oracle.assertEquivalent(
      reciprocalEdges(g),
      """SELECT e1.src AS src, e1.dst AS dst
        |FROM edges e1 JOIN edges e2 ON e1.src = e2.dst AND e1.dst = e2.src""".stripMargin,
      "edges" -> g.edges)
  }

  test("bfsDistances computes hop counts on a chain") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 4L))
    val d = GraphOps.bfsDistances(g, 1L, 3)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(d == Map(1L -> 0, 2L -> 1, 3L -> 2, 4L -> 3))
  }

  test("bfsDistances respects maxDist") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 4L))
    val d = GraphOps.bfsDistances(g, 1L, 1)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(d == Map(1L -> 0, 2L -> 1))
  }

  test("bfsDistances takes shortest of multiple paths") {
    val g = graphOf((1L, 2L), (2L, 3L), (1L, 3L))
    val d = GraphOps.bfsDistances(g, 1L, 5)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(d(3L) == 1)
  }

  test("bfsDistances stops on exhausted frontier") {
    val g = graphOf((1L, 2L), (3L, 4L))
    val d = GraphOps.bfsDistances(g, 1L, 10)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(d == Map(1L -> 0, 2L -> 1))
  }

  test("bfsDistances matches DuckDB recursive-CTE oracle on a random graph") {
    val es = repro.core.Reference.randomGraph(n = 30, m = 70, seed = 17)
    val g = graphOfSeq(es)
    val src = es.head._1
    // Forward on the graph, and backward as forward on its transpose, whose
    // index is the graph's with the directions swapped.
    for (h <- Seq(g, g.transpose)) {
      val d = GraphOps.bfsDistances(h, src, 4)
      assert(d.where(col("dist") >= 3).count() > 0, "the BFS should run several levels")
      Oracle.assertEquivalent(
        d,
        s"""WITH RECURSIVE e AS (
          |  SELECT CAST(src AS BIGINT) src, CAST(dst AS BIGINT) dst FROM edges
          |), reach(id, dist) AS (
          |  SELECT CAST($src AS BIGINT), 0
          |  UNION ALL
          |  SELECT e.dst, r.dist + 1 FROM reach r JOIN e ON r.id = e.src WHERE r.dist < 4
          |)
          |SELECT id, MIN(dist) AS dist FROM reach GROUP BY id""".stripMargin,
        "edges" -> h.edges)
    }
  }

  test("cappedBfs advances both directions: backward equals forward on the transpose") {
    val es = repro.core.Reference.randomGraph(n = 30, m = 70, seed = 23)
    val g = graphOfSeq(es)
    val src = es.map(_._1).find(v => es.exists(_._2 == v)).get
    val ix = g.index
    val s = ix.indexOf(src)
    def reached(d: Array[Int]): Map[Long, Int] =
      d.indices.filter(d(_) != Int.MaxValue).map(i => ix.ids(i) -> d(i)).toMap
    def driven(h: DirectedGraph): Map[Long, Int] =
      GraphOps.bfsDistances(h, src, 3).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    // Backward is forward along the in-rows, as CycleRank walks it.
    val fwd = reached(IndexedGraph.distances(ix.out, s, 3))
    val bwd = reached(IndexedGraph.distances(ix.in, s, 3))
    assert(fwd == driven(g))
    assert(bwd == reached(IndexedGraph.distances(g.transpose.index.out, s, 3)))
    assert(bwd == driven(g.transpose))
    assert(fwd.size > 1 && bwd.size > 1)
  }

  test("a graph builds its index once, and its transpose reuses it with the directions swapped") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (3L, 4L))
    val ix = g.index
    assert(g.index eq ix)
    val t = g.transpose.index
    assert((t.out eq ix.in) && (t.in eq ix.out) && t.ids.sameElements(ix.ids))
    assert(ix.ids.toSeq == Seq(1L, 2L, 3L, 4L))
    assert((0 until 4).map(ix.out.degree) == Seq(1, 1, 2, 0))
    assert((0 until 4).map(t.out.degree) == Seq(1, 1, 1, 1))
    assert(ix.out.nbrs.slice(ix.out.offsets(2), ix.out.offsets(3)).toSeq == Seq(0, 3))
  }

  test("fromArrays has the vertex set of clean then build: a vertex only a self-loop touches is dropped") {
    val ix = IndexedGraph.fromArrays(Array(1L, 5L, 1L), Array(2L, 5L, 2L), Array.empty[Long])
    assert(ix.ids.toSeq == Seq(1L, 2L) && ix.numEdges == 1)
    assert(ix.ids.toSeq == graphOf((1L, 2L), (5L, 5L), (1L, 2L)).index.ids.toSeq)
    // An extra id (a label, or CycleRank's reference) stays a vertex, looped or not.
    val withExtra = IndexedGraph.fromArrays(Array(1L, 5L), Array(2L, 5L), Array(5L, 9L))
    assert(withExtra.ids.toSeq == Seq(1L, 2L, 5L, 9L) && withExtra.numEdges == 1)
  }

  test("after the first engine call, vertices, outDegrees, numVertices and numEdges start no Spark job") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L))
    g.index
    val work = SparkWork.of(spark) {
      assert(g.numVertices == 3 && g.numEdges == 4)
      g.vertices.collect()
      GraphOps.outDegrees(g).collect()
    }
    assert(work.jobs == 0, work)
  }

  test("fromLabeledEdges assigns deterministic ids by sorted label") {
    val g = DirectedGraph.fromLabeledEdges(spark, Seq(("b", "a"), ("a", "c")))
    val labels = g.labels.get.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(0L -> "a", 1L -> "b", 2L -> "c"))
    val es = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(es == Set((1L, 0L), (0L, 2L)))
  }

  test("labelled isolated vertices appear in vertices") {
    import spark.implicits._
    val g = DirectedGraph(Seq((1L, 2L)).toDF("src", "dst"),
      Some(Seq((1L, "a"), (7L, "iso")).toDF("id", "label")))
    assert(g.vertices.collect().map(_.getLong(0)).toSet == Set(1L, 2L, 7L))
  }
}

package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.{DirectedGraph, GraphOps}
import repro.platform.Datastore

/** Global PageRank: closed-form cases, conservation laws, the dense
  * in-memory reference, the DuckDB oracle for a single power-iteration
  * step, and the engine against iterated steps.
  */
class PageRankSpec extends SparkSpec with GraphTestKit {

  test("scores sum to 1 on a small graph") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(maxIter = 20)))
    assertClose(s.values.sum, 1.0, 1e-9)
  }

  test("directed cycle gives uniform scores") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 4L), (4L, 1L))
    val s = scoresMap(PageRank.run(g))
    s.values.foreach(v => assertClose(v, 0.25, 1e-9))
  }

  test("complete digraph gives uniform scores") {
    val n = 5
    val es = for (i <- 0 until n; j <- 0 until n if i != j) yield (i.toLong, j.toLong)
    val s = scoresMap(PageRank.run(graphOfSeq(es)))
    s.values.foreach(v => assertClose(v, 1.0 / n, 1e-9))
  }

  test("alpha = 0 yields the uniform teleport distribution") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L), (1L, 4L))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.0)))
    s.values.foreach(v => assertClose(v, 0.25, 1e-12))
  }

  test("star graph: center out-ranks leaves") {
    val es = (1L to 6L).map(i => (i, 0L)) ++ Seq((0L, 1L))
    val s = scoresMap(PageRank.run(graphOfSeq(es), PageRank.Config(maxIter = 20)))
    assert(s(0L) > s(2L), s"center should dominate: $s")
    assert((1L to 6L).map(s).toSet.size <= 2, "symmetric leaves 2..6 must tie")
  }

  test("dangling vertex mass is redistributed (sum still 1)") {
    val g = graphOf((1L, 2L), (2L, 3L)) // 3 is dangling
    val s = scoresMap(PageRank.run(g, PageRank.Config(maxIter = 20)))
    assertClose(s.values.sum, 1.0, 1e-9)
    assert(s(3L) > s(2L), "end of chain accumulates via 2")
  }

  test("more in-links means higher score (hub test)") {
    val es = (1L to 8L).map(i => (i, 100L)) ++ (1L to 3L).map(i => (i, 200L))
    val s = scoresMap(PageRank.run(graphOfSeq(es), PageRank.Config(maxIter = 20)))
    assert(s(100L) > s(200L))
  }

  // Batch: DataFrame engine vs dense reference on random graphs.
  for (seed <- 1 to 6) {
    test(s"matches dense reference on random graph seed=$seed") {
      val es = Reference.randomGraph(n = 30, m = 120, seed = seed)
      val g  = graphOfSeq(es)
      val verts = g.vertices.collect().map(_.getLong(0)).toSeq
      val got = scoresMap(PageRank.run(g, PageRank.Config(maxIter = 20, tol = 0.0)))
      val exp = Reference.pageRank(es, verts, alpha = 0.85, iters = 20)
      assertMapsClose(got, exp, 1e-8)
    }
  }

  /** `n` applications of the DuckDB-checked [[PageRank.step]], starting
    * from the teleport vector (uniform, or 1/|refs| on each reference).
    */
  private def stepped(g: DirectedGraph, alpha: Double, refs: Seq[Long], n: Int): Map[Long, Double] = {
    import org.apache.spark.sql.functions.{col, lit, when}
    val t = if (refs.isEmpty) lit(1.0 / g.numVertices)
            else when(col("id").isin(refs: _*), lit(1.0 / refs.size)).otherwise(lit(0.0))
    var state = GraphOps.outDegrees(g).withColumn("t", t).withColumn("score", col("t"))
      .select("id", "t", "outdeg", "score")
    for (_ <- 1 to n) state = PageRank.step(state, g.edges, alpha).localCheckpoint(eager = true)
    scoresMap(state)
  }

  /** Most vertices dangling (a star whose leaves have no out-edges), plus a
    * labelled isolated vertex 9: the dangling mass dominates every sweep.
    */
  private def mostlyDangling: DirectedGraph = {
    import spark.implicits._
    val g0 = graphOfSeq((1L to 8L).map(i => (0L, i)) :+ ((1L, 0L)))
    DirectedGraph(g0.edges, Some((0L to 9L).map(i => (i, s"v$i")).toDF("id", "label")))
  }

  private def random51: DirectedGraph = graphOfSeq(Reference.randomGraph(n = 25, m = 90, seed = 51))

  for ((name, graph, alpha, refs) <- Seq(
         ("global PR", () => random51, 0.85, Seq.empty[Long]),
         ("PPR", () => random51, 0.3, Seq(3L)),
         ("global PR, mostly dangling", () => mostlyDangling, 0.85, Seq.empty[Long]),
         ("PPR, mostly dangling", () => mostlyDangling, 0.85, Seq(2L)))) {
    test(s"run equals n iterated steps ($name)") {
      val g = graph()
      val n = 12
      val got = scoresMap(PageRank.run(g,
        PageRank.Config(alpha = alpha, maxIter = n, tol = 0.0, teleport = refs)))
      val exp = stepped(g, alpha, refs, n)
      assert(got.keySet == exp.keySet)
      assertMapsClose(got, exp, 1e-12)
    }
  }

  test("no engine call persists an RDD") {
    // The index is a driver-side CSR: neither its build by the first engine
    // call nor any later PageRank, CheiRank or CycleRank run persists an RDD.
    val sc = spark.sparkContext
    val es = Reference.randomGraph(n = 25, m = 90, seed = 52)
    val store = Datastore.temp(spark)
    store.putDataset("g", graphOfSeq(es))
    val g = store.loadDataset("g")
    val before = sc.getPersistentRDDs.keySet.toSet
    for (maxIter <- Seq(5, 30)) {
      val cfg = PageRank.Config(maxIter = maxIter, tol = 0.0)
      PageRank.run(g, cfg)
      CheiRank.run(g, cfg)
      CycleRank.run(g, es.head._1, CycleRank.Config(3))
      assert(sc.getPersistentRDDs.keySet.toSet == before, s"persisted by runs of $maxIter sweeps")
    }
  }

  test("non-contiguous ids match the dense reference") {
    val ids = Seq(-7L, 3L, 1000000000000L, Long.MaxValue - 1, 0L)
    val es = Reference.randomGraph(n = 5, m = 12, seed = 53).map { case (s, d) =>
      (ids(s.toInt), ids(d.toInt))
    }
    val g = graphOfSeq(es)
    val verts = g.vertices.collect().map(_.getLong(0)).toSeq
    for (refs <- Seq(Seq.empty[Long], Seq(1000000000000L))) {
      val got = scoresMap(PageRank.run(g,
        PageRank.Config(alpha = 0.85, maxIter = 20, tol = 0.0, teleport = refs)))
      val exp = Reference.pageRank(es, verts, alpha = 0.85, teleport = refs, iters = 20)
      assert(got.keySet == exp.keySet)
      assertMapsClose(got, exp, 1e-8)
    }
  }

  test("labelled isolated vertices without edges return the teleport vector") {
    import spark.implicits._
    val g = DirectedGraph(Seq.empty[(Long, Long)].toDF("src", "dst"),
      Some((1L to 4L).map(i => (i, s"v$i")).toDF("id", "label")))
    val global = scoresMap(PageRank.run(g))
    assert(global.keySet == (1L to 4L).toSet)
    global.values.foreach(v => assertClose(v, 0.25, 1e-12))
    val ppr = scoresMap(PageRank.run(g, PageRank.Config(teleport = Seq(2L))))
    assertMapsClose(ppr, Map(1L -> 0.0, 2L -> 1.0, 3L -> 0.0, 4L -> 0.0), 1e-12)
  }

  test("single power-iteration step matches DuckDB (oracle)") {
    import org.apache.spark.sql.functions.col
    val g = graphOfSeq(Reference.randomGraph(n = 15, m = 40, seed = 99))
    val n = g.numVertices
    val state = GraphOps.outDegrees(g)
      .withColumn("t", org.apache.spark.sql.functions.lit(1.0 / n))
      .withColumn("score", org.apache.spark.sql.functions.lit(1.0 / n))
      .select("id", "t", "outdeg", "score")
    val next = PageRank.step(state, g.edges, alpha = 0.85).select(col("id"), col("score"))
    Oracle.assertEquivalent(
      next,
      """WITH s AS (SELECT CAST(id AS BIGINT) id, CAST(t AS DOUBLE) t,
        |                 CAST(outdeg AS BIGINT) outdeg, CAST(score AS DOUBLE) score FROM state),
        |e AS (SELECT CAST(src AS BIGINT) src, CAST(dst AS BIGINT) dst FROM edges),
        |contrib AS (SELECT e.dst AS id, SUM(s.score / s.outdeg) AS c
        |            FROM s JOIN e ON s.id = e.src WHERE s.outdeg > 0 GROUP BY e.dst),
        |dang AS (SELECT COALESCE(SUM(score), 0.0) AS d FROM s WHERE outdeg = 0)
        |SELECT s.id AS id,
        |       0.15 * s.t + 0.85 * (COALESCE(c.c, 0.0) + dang.d * s.t) AS score
        |FROM s LEFT JOIN contrib c ON s.id = c.id CROSS JOIN dang""".stripMargin,
      "state" -> state, "edges" -> g.edges)
  }

  test("convergence: high tol stops earlier than low tol but close to fixpoint") {
    // fast-mixing alpha so both runs converge in a handful of sweeps
    val g = graphOfSeq(Reference.randomGraph(n = 40, m = 160, seed = 7))
    val coarse = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.3, tol = 1e-4)))
    val fine   = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.3, tol = 1e-10, maxIter = 60)))
    assertMapsClose(coarse, fine, 1e-3)
  }

  test("invalid alpha is rejected") {
    intercept[IllegalArgumentException](PageRank.Config(alpha = 1.5))
    intercept[IllegalArgumentException](PageRank.Config(alpha = -0.1))
  }

  test("invalid maxIter is rejected") {
    intercept[IllegalArgumentException](PageRank.Config(maxIter = 0))
  }

  test("NaN, negative or infinite tol is rejected with its value") {
    for ((tol, shown) <- Seq((Double.NaN, "NaN"), (-1.0, "-1.0"), (Double.PositiveInfinity, "Infinity"))) {
      val e = intercept[IllegalArgumentException](PageRank.Config(tol = tol))
      assert(e.getMessage.contains(s"tol must be finite and non-negative, got $shown"), e.getMessage)
    }
  }

  test("isolated labelled vertex receives only teleport mass") {
    val g0 = graphOf((1L, 2L), (2L, 1L))
    import spark.implicits._
    val labels = Seq((1L, "a"), (2L, "b"), (3L, "iso")).toDF("id", "label")
    val g = DirectedGraph(g0.edges, Some(labels))
    val s = scoresMap(PageRank.run(g, PageRank.Config(alpha = 0.85, maxIter = 20)))
    assert(s.contains(3L))
    assert(s(3L) < s(1L))
    assertClose(s.values.sum, 1.0, 1e-9)
  }
}

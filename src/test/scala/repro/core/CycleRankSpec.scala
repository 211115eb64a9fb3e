package repro.core

import java.lang.management.ManagementFactory
import org.apache.spark.sql.functions.{col, min}
import repro.{Oracle, SparkSpec}
import repro.data.SyntheticGraphs
import repro.graph.IndexedGraph
import repro.platform.{AlgorithmRegistry, Datastore, Scheduler, Task, TaskState}

/** CycleRank: closed-form cases, the unpruned brute-force reference, the
  * DuckDB recursive-CTE oracle, the kernel on the whole graph, scoring
  * functions, and K sensitivity.
  */
class CycleRankSpec extends SparkSpec with GraphTestKit {

  private def cr(g: repro.graph.DirectedGraph, ref: Long, k: Int,
                 s: Scoring = Scoring.Exponential): Map[Long, Double] =
    scoresMap(CycleRank.run(g, ref, CycleRank.Config(k, s)))

  test("single 2-cycle: both nodes score e^-2") {
    val g = graphOf((1L, 2L), (2L, 1L))
    val s = cr(g, 1L, 3)
    assertClose(s(1L), e(2)); assertClose(s(2L), e(2))
  }

  test("triangle: all three nodes score e^-3 at K=3") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L))
    val s = cr(g, 1L, 3)
    Seq(1L, 2L, 3L).foreach(v => assertClose(s(v), e(3)))
  }

  test("triangle is invisible at K=2") {
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 1L))
    assert(cr(g, 1L, 2).isEmpty)
  }

  test("no cycles through reference yields empty result") {
    val g = graphOf((1L, 2L), (2L, 3L), (1L, 3L))
    assert(cr(g, 1L, 5).isEmpty)
  }

  test("cycle not through the reference is not counted") {
    val g = graphOf((2L, 3L), (3L, 2L), (1L, 2L))
    assert(cr(g, 1L, 5).isEmpty)
  }

  test("reference node always attains the maximum score") {
    val g = graphOfSeq(Reference.randomReciprocalGraph(20, 70, seed = 5))
    val refv = 0L
    val s = cr(g, refv, 4)
    if (s.nonEmpty) assert(s(refv) == s.values.max)
  }

  test("mutual pair plus triangle combine additively") {
    // 1<->2 (2-cycle) and 1->2->3->1 (3-cycle): node 2 in both.
    val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L))
    val s = cr(g, 1L, 3)
    assertClose(s(2L), e(2) + e(3))
    assertClose(s(3L), e(3))
    assertClose(s(1L), e(2) + e(3))
  }

  test("two disjoint 2-cycles through ref: ref accumulates, others do not") {
    val g = graphOf((1L, 2L), (2L, 1L), (1L, 3L), (3L, 1L))
    val s = cr(g, 1L, 2)
    assertClose(s(1L), 2 * e(2))
    assertClose(s(2L), e(2)); assertClose(s(3L), e(2))
  }

  test("complete digraph K4, K=4: counts match closed forms") {
    // Cycles through node 0 in complete digraph on 4 vertices:
    //   length 2: 3;  length 3: 3*2 = 6;  length 4: 3*2*1 = 6.
    val es = for (i <- 0L to 3L; j <- 0L to 3L if i != j) yield (i, j)
    val s = cr(graphOfSeq(es), 0L, 4, Scoring.Constant)
    assertClose(s(0L), 3 + 6 + 6)
    // each other vertex: all length-2 w/ ref? one. length-3: on 4 of 6. length-4: all 6.
    assertClose(s(1L), 1 + 4 + 6)
  }

  test("self-loops are ignored (cleaned away)") {
    val g = graphOf((1L, 1L), (1L, 2L), (2L, 1L))
    val s = cr(g, 1L, 3)
    assertClose(s(1L), e(2))
  }

  test("K must be at least 2") {
    intercept[IllegalArgumentException](CycleRank.Config(k = 1))
  }

  test("missing reference node is rejected") {
    val g = graphOf((1L, 2L), (2L, 1L))
    val ex = intercept[IllegalArgumentException](CycleRank.run(g, 99L, CycleRank.Config(3)))
    assert(ex.getMessage.contains("reference node 99 is not in the graph"))
  }

  test("labelled isolated reference yields an empty result") {
    import spark.implicits._
    val g = repro.graph.DirectedGraph(graphOf((1L, 2L), (2L, 1L)).edges,
      Some(Seq((1L, "a"), (2L, "b"), (7L, "iso")).toDF("id", "label")))
    assert(cr(g, 7L, 3).isEmpty)
  }

  test("K=2 runs a single BFS level and counts only 2-cycles") {
    // 1<->2 plus the triangle 1->3->4->1: only the mutual pair counts.
    val g = graphOf((1L, 2L), (2L, 1L), (1L, 3L), (3L, 4L), (4L, 1L))
    val s = cr(g, 1L, 2)
    assert(s.keySet == Set(1L, 2L))
    assertClose(s(1L), e(2)); assertClose(s(2L), e(2))
  }

  test("complete digraph K6, K=5: counts match closed forms") {
    // In the complete digraph on m vertices there are (m-1)!/(m-n)!
    // n-cycles through r, and (n-1)(m-2)!/(m-n)! of them contain i.
    val m = 6
    def fact(x: Int): Long = (1 to x).map(_.toLong).product
    val es = for (i <- 0L until m; j <- 0L until m if i != j) yield (i, j)
    val s = cr(graphOfSeq(es), 0L, 5, Scoring.Constant)
    val throughR = (2 to 5).map(n => fact(m - 1) / fact(m - n)).sum
    val withI = (2 to 5).map(n => (n - 1) * fact(m - 2) / fact(m - n)).sum
    assert(throughR == 205 && withI == 141)
    assert(s(0L) == throughR.toDouble)
    (1L until m).foreach(i => assert(s(i) == withI.toDouble))
  }

  // Batch: brute-force reference, multiple K and scorings.
  for (seed <- 1 to 8; k <- Seq(3, 4)) {
    test(s"matches brute-force reference seed=$seed K=$k") {
      val es = Reference.randomReciprocalGraph(n = 14, m = 40, seed = 400 + seed)
      val g  = graphOfSeq(es)
      val got = cr(g, ref = es.head._1, k = k)
      val exp = Reference.cycleRank(es, ref = es.head._1, k = k)
      assertMapsClose(got, exp, 1e-10)
    }
  }

  for (s <- Scoring.all) {
    test(s"scoring '${s.name}' weights cycles as sigma") {
      val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L))
      val m = cr(g, 1L, 3, s)
      assertClose(m(3L), s.sigma(3))
      assertClose(m(2L), s.sigma(2) + s.sigma(3))
    }
  }

  test("larger K can only add score") {
    val es = Reference.randomReciprocalGraph(n = 12, m = 34, seed = 77)
    val g  = graphOfSeq(es)
    val s3 = cr(g, es.head._1, 3)
    val s5 = cr(g, es.head._1, 5)
    for ((v, sc) <- s3) assert(s5.getOrElse(v, 0.0) >= sc - 1e-12)
  }

  test("matches DuckDB recursive-CTE oracle on a reciprocal graph") {
    val es = Reference.randomReciprocalGraph(n = 10, m = 26, seed = 31)
    val g  = graphOfSeq(es)
    val ref = es.head._1
    val k = 4
    val got = CycleRank.run(g, ref, CycleRank.Config(k))
    val sql =
      s"""WITH RECURSIVE e AS (
         |  SELECT CAST(src AS BIGINT) src, CAST(dst AS BIGINT) dst FROM edges
         |), paths(last, path) AS (
         |  SELECT e.dst, [CAST($ref AS BIGINT), e.dst] FROM e WHERE e.src = $ref
         |  UNION ALL
         |  SELECT e.dst, list_append(p.path, e.dst)
         |  FROM paths p JOIN e ON p.last = e.src
         |  WHERE len(p.path) <= $k - 1 AND NOT list_contains(p.path, e.dst)
         |), cycles AS (
         |  SELECT p.path AS path, len(p.path) AS n
         |  FROM paths p JOIN e ON p.last = e.src
         |  WHERE e.dst = $ref AND len(p.path) BETWEEN 2 AND $k
         |), members AS (
         |  SELECT unnest(path) AS id, n FROM cycles
         |)
         |SELECT m.id AS id, SUM(exp(-CAST(m.n AS DOUBLE))) AS score
         |FROM members m GROUP BY m.id""".stripMargin
    Oracle.assertEquivalent(got, sql, "edges" -> g.edges)
  }

  test("pruning does not lose distant cycles exactly at the K boundary") {
    // 5-cycle through ref requires K=5; K=4 must not see it.
    val g = graphOf((1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L), (5L, 1L))
    assert(cr(g, 1L, 4).isEmpty)
    val s5 = cr(g, 1L, 5)
    Seq(1L, 2L, 3L, 4L, 5L).foreach(v => assertClose(s5(v), e(5)))
  }

  test("a registry query at K = Int.MaxValue equals the query at K = n") {
    // No simple cycle is longer than the vertex count, so a K above it
    // must neither change the scores nor size the kernel's arrays.
    // Cycles through 1 of every length from 2 to 5 = n.
    val g = graphOf((1L, 2L), (2L, 1L), (2L, 3L), (3L, 1L), (3L, 4L), (4L, 5L), (5L, 1L), (4L, 1L))
    def query(k: Long) = scoresMap(repro.platform.AlgorithmRegistry("cyclerank")(
      g, Map("ref" -> "1", "k" -> k.toString)))
    val atN = query(g.numVertices)
    assert(atN.keySet == Set(1L, 2L, 3L, 4L, 5L))
    assert(query(Int.MaxValue) == atN)
  }

  // A directed ring of 5 000 vertices: its one cycle has 5 000 edges, so a
  // DFS that recursed once per path extension would overflow a thread's
  // stack. σ ≡ 1, because e^-5000 underflows to 0.
  private val ring = (0L until 5000L).map(v => (v, (v + 1) % 5000))
  private def ringQuery(k: Int) = Map("ref" -> "0", "k" -> k.toString, "sigma" -> "const")

  test("a 5 000-vertex ring scores every vertex 1.0 at K = n and at K = Int.MaxValue") {
    val g = graphOfSeq(ring)
    for (k <- Seq(5000, Int.MaxValue)) {
      val s = scoresMap(AlgorithmRegistry("cyclerank")(g, ringQuery(k)))
      assert(s.size == 5000 && s.values.forall(_ == 1.0), s"K=$k")
    }
  }

  test("a 5 000-vertex ring query through the Scheduler ends Done") {
    val store = Datastore.temp(spark)
    store.putDataset("ring", graphOfSeq(ring))
    val sched = new Scheduler(store, workers = 1)
    try {
      val task = Task("ring", "cyclerank", ringQuery(Int.MaxValue))
      assert(sched.await(sched.submit(task)) == TaskState.Done, store.readLog(task.id).mkString.take(300))
      val s = scoresMap(store.readResult(task.id).get)
      assert(s.size == 5000 && s.values.forall(_ == 1.0))
    } finally sched.shutdown()
  }

  test("a 5 000-vertex ring query at K = n allocates counts only for the cycle length that occurs") {
    // Its one cycle has length 5 000: a count array of K + 1 longs per
    // vertex on it would take 5 000 × 5 001 longs (200 MB).
    val ix = IndexedGraph.fromArrays(ring.map(_._1).toArray, ring.map(_._2).toArray, Array.empty[Long])
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    val s = CycleRank.scores(ix, 0L, CycleRank.Config(5000, Scoring.Constant), CycleRank.MaxKernelSteps)
    val bytes = mx.getCurrentThreadAllocatedBytes - before
    assert(s.size == 5000 && s.values.forall(_ == 1.0))
    assert(bytes < 10_000_000L, s"the query allocated $bytes bytes")
  }

  test("distributed and local CycleRank agree at bench scale") {
    // The kernel on the whole collected graph is the unpruned baseline.
    val g = SyntheticGraphs.wikilinkLike(spark, 0.01)
    val n = g.numVertices
    // deterministic reference inside a reciprocal community block, away
    // from the zipf-popular low ids
    val ref = reciprocalEdges(g).where(col("src") > n / 2)
      .agg(min("src")).head().getLong(0)
    val d = cr(g, ref, 3)
    val es = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    val l = LocalCycleRank.runOnEdges(es, ref, CycleRank.Config(3))
    assert(d.size > 1, s"reference $ref shares no cycle")
    val diff = Reference.maxAbsDiff(d, l)
    assert(diff < 1e-9, s"engines diverge by $diff")
  }
}

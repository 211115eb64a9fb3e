package repro.perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{CycleRank, LocalCycleRank, PageRank, Scoring}
import repro.graph.GraphOps
import repro.platform.{AlgorithmRegistry, Datastore, Task}

/** A timed call: `name` is `<query>.<layer>`; times are seconds from the
  * start of the traced pass.
  */
final case class Span(name: String, parent: String, startS: Double, endS: Double)

/** The traced pass: the bench thread makes the same calls as
  * `PlatformExecutor.execute`, query by query, timing each call and
  * tagging its Spark jobs; after each query it probes the layers below
  * (prune, support, local kernel) outside the timed total. Everything is
  * sequential, unlike the two-worker scheduler passes.
  */
final class Tracer(spark: SparkSession, w: Workload, acct: JobAccounting) {
  val spans = mutable.ArrayBuffer.empty[Span]
  /** Per-layer sums over the pass, by metric name. */
  val sums = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  private var origin = 0L

  private def at(t: Long): Double = (t - origin) / 1e9

  private def span[A](name: String, parent: String)(f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = acct.tagged(name)(f)
    val t1 = System.nanoTime()
    spans += Span(name, parent, at(t0), at(t1))
    (a, (t1 - t0) / 1e9)
  }

  /** Runs the traced pass; returns its store, tasks and traced total. */
  def run(dir: Path): (Datastore, Vector[Task], Double) = {
    val (store, _) = Passes.freshStore(spark, w, dir)
    val tasks = Passes.tasks(w, store)
    origin = System.nanoTime()
    var total = 0.0
    for ((t, i) <- tasks.zipWithIndex) {
      val q = Query(t.algorithm, t.params)
      val tag = f"q$i%02d"
      val t0 = System.nanoTime()
      store.appendLog(t.id, s"start dataset=${t.dataset} algorithm=${t.algorithm}")
      val (g, loadS) = span(s"$tag.load", tag) {
        val g = store.loadDataset(t.dataset); g.numEdges; g
      }
      val (result, runS) = span(s"$tag.run", tag)(AlgorithmRegistry(t.algorithm)(g, t.params))
      val (_, writeS) = span(s"$tag.write", tag)(store.writeResult(t.id, result))
      val (n, _) = span(s"$tag.count", tag)(result.count())
      store.appendLog(t.id, s"done rows=$n")
      val t1 = System.nanoTime()
      spans += Span(tag, w.name, at(t0), at(t1))
      total += (t1 - t0) / 1e9
      sums("platform.load_s") += loadS
      sums("platform.write_s") += writeS
      if (q.isCycleRank) {
        sums("cr.run_s") += runS
        probeCycleRank(q, tag, g)
      } else sums(s"pr.run_s.${q.algorithm}") += runS
      println(f"trace $tag ${q.label}%-48s load ${loadS}%.3f s  run ${runS}%.3f s  write ${writeS}%.3f s")
    }
    val work = acct.snapshot()
    val perQuery = mutable.LinkedHashMap.empty[String, SparkWork]
    for (i <- tasks.indices) {
      val tag = f"q$i%02d"
      val q = Query(tasks(i).algorithm, tasks(i).params)
      def of(layer: String) = work.getOrElse(s"$tag.$layer", SparkWork.zero)
      perQuery(tag) = Seq("load", "run", "write", "count").map(of).reduce(_ + _)
      val runJobs = of("run").jobs.toDouble
      if (q.isCycleRank) {
        sums("cr.jobs") += runJobs
        sums("graph.prune_jobs") += of("prune.fwd").jobs + of("prune.bwd").jobs
      } else sums(s"pr.jobs.${q.algorithm}") += runJobs
      println(f"spark $tag ${q.label}%-48s jobs ${perQuery(tag).jobs}%5d  tasks ${perQuery(tag).tasks}%6d  " +
        f"shuffle ${perQuery(tag).shuffleWriteBytes}%10d B")
    }
    val all = perQuery.values.foldLeft(SparkWork.zero)(_ + _)
    sums("spark.jobs") = all.jobs.toDouble
    sums("spark.tasks") = all.tasks.toDouble
    sums("spark.shuffle_write_bytes") = all.shuffleWriteBytes.toDouble
    sums("cr.expand_s") = sums("cr.run_s") - sums("graph.prune_s")
    sums.filter { case (k, _) => k.startsWith("pr.") || k.startsWith("cr.cycles.") }
      .foreach { case (k, v) => println(f"trace $k $v%.6g") }
    (store, tasks, total)
  }

  /** The layers under one CycleRank query: the two capped BFS prune
    * passes, the support they leave, and the local kernel on it.
    */
  private def probeCycleRank(q: Query, tag: String, g: repro.graph.DirectedGraph): Unit = {
    val ref = q.ref.get
    val (fwd, fwdS) = span(s"$tag.prune.fwd", tag)(GraphOps.bfsDistances(g, ref, q.k - 1))
    val (bwd, bwdS) = span(s"$tag.prune.bwd", tag)(GraphOps.bfsDistances(g.transpose, ref, q.k - 1))
    sums("graph.prune_s") += fwdS + bwdS
    sums("graph.fwd_ball") += fwd.count()
    sums("graph.bwd_ball") += bwd.count()
    val support = fwd.select(col("id"), col("dist").as("f"))
      .join(bwd.select(col("id"), col("dist").as("b")), Seq("id"))
      .where(col("f") + col("b") <= q.k)
      .select("id").collect().map(_.getLong(0)).toSet
    val edges = w.edges.filter { case (s, d) => support(s) && support(d) }
    sums("cr.support") += support.size
    sums("cr.support_edges") += edges.length
    val (_, kernelS) = Passes.time(
      LocalCycleRank.runOnEdges(edges.toSeq, ref, CycleRank.Config(q.k, Scoring.Exponential)))
    sums("cr.kernel_s") += kernelS
    // With σ ≡ 1 the reference's score counts the cycles of length ≤ K
    // through it; differencing over K gives the count per length.
    val upTo = (2 to q.k).map(k =>
      LocalCycleRank.runOnEdges(edges.toSeq, ref, CycleRank.Config(k, Scoring.Constant))
        .getOrElse(ref, 0.0))
    upTo.indices.foreach { i =>
      sums(s"cr.cycles.${i + 2}") += upTo(i) - (if (i == 0) 0.0 else upTo(i - 1))
    }
  }

  /** Spans as JSON lines, one object per span. */
  def writeSpans(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    Files.write(file, spans.map { s =>
      f"""{"name": "${s.name}", "parent": "${s.parent}", "start_s": ${s.startS}%.6f, "end_s": ${s.endS}%.6f}"""
    }.mkString("", "\n", "\n").getBytes("UTF-8"))
  }
}

object Tracer {
  /** Cycle lengths reported as metrics: every workload queries K=3. */
  val CycleLengths: Range = 2 to 3

  /** ms-per-sweep probe: one public `PageRank.step` plus an eager
    * `localCheckpoint` on the workload graph; median of three.
    */
  def stepSeconds(spark: SparkSession, w: Workload): Double = {
    val s = Gate.state(w.graph, w.graph.vertices.withColumn("score", lit(0.0)), None)
      .withColumn("score", col("t")).localCheckpoint(eager = true)
    val times = (1 to 3).map(_ => Passes.time(
      PageRank.step(s, w.graph.edges, 0.85).localCheckpoint(eager = true))._2)
    times.sorted.apply(1)
  }
}

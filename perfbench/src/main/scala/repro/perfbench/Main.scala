package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.io.Source
import org.apache.spark.sql.SparkSession
import repro.platform.{Datastore, Task, TaskState}

/** Query-set benchmark: runs one workload through the platform (task
  * builder → scheduler → executor → datastore) and prints its metrics as
  * one JSON object on the last line of stdout. See perfbench/README.md.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
  * }}}
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, workDir: Path)

  /** Spark settings; recorded in README.md with the hardware. */
  val ShufflePartitions = 1

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble, trace, Paths.get(get("workdir")))
  }

  def session(workDir: Path): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("repro-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .getOrCreate()

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** This JVM's peak resident set (`VmHWM`), in MiB. */
  def peakRssMb(): Double = {
    val src = Source.fromFile("/proc/self/status")
    try src.getLines().find(_.startsWith("VmHWM:"))
      .map(_.split("\\s+")(1).toDouble / 1024).getOrElse(Double.NaN)
    finally src.close()
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val runDir = args.workDir.resolve(s"${args.workload}-${args.seed}-${ProcessHandle.current.pid}")
    Files.createDirectories(runDir)
    val (spark, sessionS) = Passes.time(session(runDir))
    val ok = try run(spark, args, runDir, sessionS) finally {
      spark.stop()
      Passes.deleteTree(runDir)
    }
    if (!ok) sys.exit(1)
  }

  /** Runs the workload; prints the result line; returns whether every
    * task passed the correctness gate.
    */
  def run(spark: SparkSession, args: Args, runDir: Path, sessionS: Double): Boolean = {
    val (w, genS) = Passes.time(Workloads.build(spark, args.workload, args.seed))
    w.references.foreach { r =>
      println(s"reference ${w.name} seed=${args.seed} id=${r.id} " +
        r.supportByK.toSeq.sorted.map { case (k, s) => s"support(K=$k)=$s" }.mkString(" "))
    }
    val gate = new Gate(spark, w)
    val acct = new JobAccounting(spark)
    val uploads = mutable.ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0

    def gateAll(store: Datastore, tasks: Vector[Task], states: Map[String, TaskState]): Map[String, Double] = {
      val (failures, residuals) = gate.check(store, tasks, states)
      failures.foreach { case (id, why) =>
        val t = tasks.find(_.id == id).get
        println(s"FAILED ${Query(t.algorithm, t.params).label}: $why")
      }
      attempted += tasks.size
      failed += failures.size
      residuals
    }

    // Untimed warm-up passes of the whole query set, part of setup: the JIT
    // and Spark's code generation are still settling during the first ones.
    val warmS = (1 to w.warmups).map { i =>
      val warm = Passes.scheduled(spark, w, runDir.resolve(s"warmup$i"))
      Passes.deleteTree(warm.store.root)
      uploads += warm.uploadS
      warm.makespanS
    }
    println(f"setup: session $sessionS%.3f s, workload $genS%.3f s, upload ${uploads.head}%.3f s, " +
      s"warm-up ${warmS.map(x => f"$x%.3f").mkString(" + ")} s")

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def setupS = sessionS + genS + median(uploads.toSeq) + warmS.sum
    def scheduledPass(name: String, workers: Int): SchedulerPass = {
      val p = Passes.scheduled(spark, w, runDir.resolve(name), workers)
      uploads += p.uploadS
      println(f"$name: $workers worker(s), makespan ${p.makespanS}%.3f s")
      gateAll(p.store, p.timings.map(_.task), p.timings.map(t => t.task.id -> t.state).toMap)
      Passes.deleteTree(p.store.root)
      p
    }

    if (!args.trace) {
      val passes = mutable.ArrayBuffer.empty[SchedulerPass]
      while (passes.isEmpty || passes.map(_.makespanS).sum < args.seconds)
        passes += scheduledPass(s"pass${passes.size}", Passes.Workers)
      val latencies = passes.flatMap(_.timings.map(_.terminalS)).toSeq
      println(s"latency samples n=${latencies.size} over ${passes.size} pass(es)")
      metrics("makespan_s") = (median(passes.map(_.makespanS).toSeq), "s")
      metrics("latency_p50_s") = (median(latencies), "s")
      metrics("setup_s") = (setupS, "s")
    } else {
      val tracer = new Tracer(spark, w, acct)
      val (tStore, tTasks, tracedS) = tracer.run(runDir.resolve("traced"))
      val residuals = gateAll(tStore, tTasks, tTasks.map(t => t.id -> (TaskState.Done: TaskState)).toMap)
      Passes.deleteTree(tStore.root)
      val untraced = scheduledPass("untraced", 1)
      println(f"traced pass $tracedS%.3f s, untraced sequential pass ${untraced.makespanS}%.3f s")
      // Queue wait in the configuration the timed runs use (two workers).
      val queued = scheduledPass("queued", Passes.Workers)
      tracer.writeSpans(args.workDir.resolve("traces").resolve(s"${w.name}-seed${args.seed}.jsonl"))

      // Only figures that every workload produces are metrics; the ones a
      // workload may lack (PageRank calls, cycles longer than 3) are printed
      // on the trace lines above.
      val s = tracer.sums
      def put(name: String, unit: String) = metrics(name) = (s(name), unit)
      put("platform.load_s", "s"); put("platform.write_s", "s")
      metrics("platform.queue_wait_s") = (queued.timings.map(_.runningS).sum, "s")
      put("graph.prune_s", "s"); put("graph.prune_jobs", "count")
      put("graph.fwd_ball", "vertices"); put("graph.bwd_ball", "vertices")
      put("cr.run_s", "s"); put("cr.expand_s", "s"); put("cr.jobs", "count")
      put("cr.support", "vertices"); put("cr.support_edges", "edges")
      Tracer.CycleLengths.foreach(n => put(s"cr.cycles.$n", "count"))
      put("cr.kernel_s", "s")
      metrics("pr.step_s") = (Tracer.stepSeconds(spark, w), "s")
      if (residuals.nonEmpty) println(f"trace pr.residual ${residuals.values.max}%.3e")
      put("spark.jobs", "count"); put("spark.tasks", "count"); put("spark.shuffle_write_bytes", "bytes")
      metrics("trace.traced_s") = (tracedS, "s")
      metrics("trace.untraced_s") = (untraced.makespanS, "s")
      metrics("trace.overhead_s") = (tracedS - untraced.makespanS, "s")
      // Peak RSS varies by more than a tenth from run to run, so it is a
      // per-layer figure, not an end-to-end metric.
      metrics("jvm.peak_rss_mb") = (peakRssMb(), "MiB")
    }

    println(Main.json(failed == 0, attempted, failed, metrics.toSeq))
    failed == 0
  }

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, (Double, String))]): String = {
    val ms = metrics.map { case (name, (v, unit)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v")
      s""""$name": {"value": ${java.lang.Double.toString(v)}, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

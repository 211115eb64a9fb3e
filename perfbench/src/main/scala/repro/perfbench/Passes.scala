package repro.perfbench

import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.platform._

/** Spark work attributed by job tag: jobs, tasks and shuffle bytes written. */
final case class SparkWork(jobs: Long, tasks: Long, shuffleWriteBytes: Long) {
  def +(o: SparkWork): SparkWork =
    SparkWork(jobs + o.jobs, tasks + o.tasks, shuffleWriteBytes + o.shuffleWriteBytes)
}

object SparkWork {
  val zero: SparkWork = SparkWork(0, 0, 0)
}

/** A listener the benchmark registers on the session: counts jobs, tasks
  * and shuffle-write bytes per job tag (set by the calling thread with
  * [[tagged]], i.e. `SparkContext.addJobTag`). Listener events arrive asynchronously, so
  * [[snapshot]] first runs a sentinel job and waits until its end event
  * has been delivered — every earlier event has been delivered by then.
  */
final class JobAccounting(spark: SparkSession) extends SparkListener {
  private final class Counter {
    val jobs = new AtomicLong; val tasks = new AtomicLong; val bytes = new AtomicLong
  }
  private val byTag = new ConcurrentHashMap[String, Counter]()
  private val stageTag = new ConcurrentHashMap[Int, String]()
  private val sentinelJobs = ConcurrentHashMap.newKeySet[Int]()
  private var sentinelsSeen = 0L
  private var sentinelsRun = 0L
  /** Spark SQL adds tags of its own; ours carry this prefix. */
  private val Prefix = "perfbench."
  private val Sentinel = "sentinel"

  spark.sparkContext.addSparkListener(this)

  private def counter(tag: String) = byTag.computeIfAbsent(tag, _ => new Counter)

  private def tagsOf(props: java.util.Properties): Seq[String] =
    Option(props).flatMap(p => Option(p.getProperty("spark.job.tags")))
      .map(_.split(",").toSeq.filter(_.startsWith(Prefix)).map(_.drop(Prefix.length)))
      .getOrElse(Seq.empty)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    tagsOf(e.properties).foreach { tag =>
      if (tag == Sentinel) sentinelJobs.add(e.jobId)
      else {
        counter(tag).jobs.incrementAndGet()
        e.stageInfos.foreach(s => stageTag.put(s.stageId, tag))
      }
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (sentinelJobs.remove(e.jobId)) synchronized { sentinelsSeen += 1; notifyAll() }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    Option(stageTag.get(e.stageId)).foreach { tag =>
      val c = counter(tag)
      c.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach(m => c.bytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
  }

  /** Run `f` with every Spark job it issues tagged `tag`. */
  def tagged[A](tag: String)(f: => A): A = {
    val sc = spark.sparkContext
    sc.clearJobTags(); sc.addJobTag(Prefix + tag)
    try f finally sc.removeJobTag(Prefix + tag)
  }

  /** Work per tag, after every event issued so far has been delivered. */
  def snapshot(): Map[String, SparkWork] = {
    tagged(Sentinel)(spark.sparkContext.parallelize(Seq(1), 1).count())
    sentinelsRun += 1
    synchronized {
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (sentinelsSeen < sentinelsRun && System.nanoTime() < deadline) wait(100)
    }
    byTag.asScala.iterator.map { case (t, c) =>
      t -> SparkWork(c.jobs.get, c.tasks.get, c.bytes.get)
    }.toMap
  }
}

/** What one query did in a scheduler pass: seconds from `submitAll` to
  * the first poll that saw it `Running` and to its terminal state.
  */
final case class TaskTiming(task: Task, runningS: Double, terminalS: Double, state: TaskState)

final case class SchedulerPass(makespanS: Double, uploadS: Double, timings: Vector[TaskTiming],
                               store: Datastore)

object Passes {
  val Workers = 2
  private val PollMs = 2L

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, secondsSince(t0))
  }

  /** A fresh datastore under `dir` with the workload's dataset uploaded.
    * Each pass gets its own: the scheduler never re-runs a task whose
    * permalink id already completed, so a reused store would time nothing.
    */
  def freshStore(spark: SparkSession, w: Workload, dir: Path): (Datastore, Double) = time {
    val store = Datastore.at(dir.toString, spark)
    store.putDataset(w.dataset, w.graph)
    store
  }

  def tasks(w: Workload, store: Datastore): Vector[Task] = {
    val builder = new TaskBuilder(store.datasetNames, AlgorithmRegistry.names)
    w.queries.map(q => builder.build(w.dataset, q.algorithm, q.params))
  }

  /** The closed-loop measurement: one client submits the whole query set
    * with `submitAll` to a fresh scheduler and polls status until every
    * task is terminal. Timed runs use the default two workers; the traced
    * run's untraced comparison pass uses one, which makes it sequential.
    */
  def scheduled(spark: SparkSession, w: Workload, dir: Path, workers: Int = Workers): SchedulerPass = {
    val (store, uploadS) = freshStore(spark, w, dir)
    val ts = tasks(w, store)
    val scheduler = new Scheduler(store, workers)
    val running = Array.fill(ts.size)(Double.NaN)
    val terminal = Array.fill(ts.size)(Double.NaN)
    val t0 = System.nanoTime()
    try {
      scheduler.submitAll(QuerySet(ts))
      while (terminal.exists(_.isNaN)) {
        Thread.sleep(PollMs)
        val now = secondsSince(t0)
        ts.indices.foreach { i =>
          scheduler.status(ts(i).id) match {
            case Some(TaskState.Running) if running(i).isNaN => running(i) = now
            case Some(TaskState.Done | TaskState.Failed(_)) if terminal(i).isNaN =>
              if (running(i).isNaN) running(i) = now
              terminal(i) = now
            case _ =>
          }
        }
      }
    } finally scheduler.shutdown()
    val timings = ts.indices.map { i =>
      TaskTiming(ts(i), running(i), terminal(i), scheduler.status(ts(i).id).get)
    }.toVector
    SchedulerPass(terminal.max, uploadS, timings, store)
  }

  def deleteTree(dir: Path): Unit =
    if (Files.exists(dir))
      Files.walk(dir).sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
}

package repro.platform

import java.util.concurrent.{ConcurrentHashMap, Executors, TimeUnit}

/** Executor node (paper §III): performs the computation for one task —
  * fetch the dataset from the datastore, run the algorithm from the
  * registry, write results and logs back.
  */
final class PlatformExecutor(store: Datastore) {

  /** Run a task to completion. Results land in the datastore under the
    * task id; returns the row count as a cheap progress figure.
    */
  def execute(task: Task): Long = {
    store.appendLog(task.id, s"start dataset=${task.dataset} algorithm=${task.algorithm}")
    val g = store.loadDataset(task.dataset)
    val result = AlgorithmRegistry(task.algorithm)(g, task.params)
    val n = store.writeResult(task.id, result)
    store.appendLog(task.id, s"done rows=$n")
    n
  }
}

/** Scheduler + Status (paper §III): receives tasks, dispatches them to a
  * pool of executor workers, and exposes poll-able task states. The
  * number of workers models the demo's scalable computational nodes.
  */
final class Scheduler(store: Datastore, workers: Int = 2) {
  require(workers >= 1)
  private val pool = Executors.newFixedThreadPool(workers)
  private val states = new ConcurrentHashMap[String, TaskState]()
  private val executor = new PlatformExecutor(store)

  /** Submit a task; returns its id immediately (the permalink). Tasks
    * already submitted (same triple → same id) are not re-run unless they
    * previously failed. Parameters that do not parse are rejected here,
    * before anything is queued.
    */
  def submit(task: Task): String = {
    val fresh = states.compute(task.id, (_, prev) => prev match {
      case null | TaskState.Failed(_) => TaskState.Queued
      case other                      => other
    })
    if (fresh == TaskState.Queued) {
      pool.submit(new Runnable {
        def run(): Unit = {
          states.put(task.id, TaskState.Running)
          try {
            executor.execute(task)
            states.put(task.id, TaskState.Done)
          } catch {
            case e: Throwable =>
              val trace = new java.io.StringWriter
              e.printStackTrace(new java.io.PrintWriter(trace))
              store.appendLog(task.id, s"failed: $trace")
              states.put(task.id, TaskState.Failed(String.valueOf(e.getMessage)))
          }
        }
      })
    }
    task.id
  }

  /** Submit a whole query set; returns the set id. */
  def submitAll(qs: QuerySet): String = { qs.tasks.foreach(submit); qs.id }

  /** Status poll, as the Web UI's Status component would issue. */
  def status(taskId: String): Option[TaskState] = Option(states.get(taskId))

  /** Block until a task reaches a terminal state (tests / CLI usage). */
  def await(taskId: String, timeoutMs: Long = 600000): TaskState = {
    val deadline = System.nanoTime() + timeoutMs * 1000000L
    var s = status(taskId)
    while (System.nanoTime() < deadline &&
           !s.exists(st => st == TaskState.Done || st.isInstanceOf[TaskState.Failed])) {
      Thread.sleep(20)
      s = status(taskId)
    }
    s.getOrElse(throw new IllegalStateException(s"task $taskId was never submitted"))
  }

  def shutdown(): Unit = {
    pool.shutdown()
    pool.awaitTermination(60, TimeUnit.SECONDS)
  }
}

package repro.platform

import java.security.MessageDigest

/** A task is the paper's triple — dataset, algorithm, parameters — built
  * by the Task Builder and sent to the Scheduler (paper §III).
  *
  * @param dataset   name of a dataset registered in the [[Datastore]]
  * @param algorithm key into the [[AlgorithmRegistry]]
  * @param params    algorithm parameters as strings (as a web form would
  *                  submit them), e.g. `alpha`, `ref`, `k`, `sigma`
  */
final case class Task(dataset: String, algorithm: String, params: Map[String, String]) {

  /** Stable content-derived identifier; doubles as the permalink id the
    * demo assigns to a query (deterministic, so tests and resumed
    * sessions agree). It digests the canonical parameters, so a default
    * left out and the same default spelled out give one id; it throws
    * when the parameters do not parse.
    */
  lazy val id: String = {
    val canonical = AlgorithmRegistry.canonical(algorithm, params).toSeq.sorted
    Task.digest(s"$dataset|$algorithm|${canonical.map { case (k, v) => s"$k=$v" }.mkString(",")}")
  }
}

object Task {
  private[platform] def digest(s: String): String =
    MessageDigest.getInstance("SHA-256")
      .digest(s.getBytes("UTF-8")).take(8).map("%02x".format(_)).mkString
}

/** Execution states surfaced by the Status component. */
sealed trait TaskState
object TaskState {
  case object Queued  extends TaskState
  case object Running extends TaskState
  case object Done    extends TaskState
  final case class Failed(reason: String) extends TaskState
}

/** A query set groups tasks under one permalink, as in the task-builder
  * interface (paper Fig. 2): the user accumulates queries, can drop one
  * or empty the set, and retrieves all results under the set id.
  */
final case class QuerySet(tasks: Vector[Task]) {
  lazy val id: String = Task.digest(tasks.map(_.id).mkString("+"))

  /** Add a query (the task-builder "+" action). A task with the id of one
    * already in the set is kept out — resubmitting the same triple is a
    * no-op, like the demo's permalink semantics.
    */
  def add(t: Task): QuerySet =
    if (tasks.exists(_.id == t.id)) this else QuerySet(tasks :+ t)

  /** Remove one query (the ⊠ action). */
  def remove(t: Task): QuerySet = QuerySet(tasks.filterNot(_.id == t.id))

  /** Empty the set (the trash-bin action). */
  def clear: QuerySet = QuerySet(Vector.empty)
}

object QuerySet {
  val empty: QuerySet = QuerySet(Vector.empty)
}

/** The Task Builder: accumulates tasks from user selections, validating
  * against the known datasets and algorithms before they reach the
  * scheduler.
  */
final class TaskBuilder(datasets: => Set[String], algorithms: => Set[String]) {

  /** Build one task, validating dataset and algorithm names and the
    * parameters eagerly (the Web UI only offers valid choices; programmatic
    * callers get an error here instead of a failed task later). The task
    * carries the canonical parameters ([[AlgorithmRegistry.canonical]]).
    */
  def build(dataset: String, algorithm: String, params: Map[String, String]): Task = {
    require(datasets.contains(dataset),
      s"unknown dataset '$dataset'; available: ${datasets.toSeq.sorted.mkString(", ")}")
    require(algorithms.contains(algorithm),
      s"unknown algorithm '$algorithm'; available: ${algorithms.toSeq.sorted.mkString(", ")}")
    Task(dataset, algorithm, AlgorithmRegistry.canonical(algorithm, params))
  }
}

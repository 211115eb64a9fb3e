package repro.perfbench

import java.nio.file.Files
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CycleRank, LocalCycleRank, PageRank, Scoring, TableHarness}
import repro.graph.{DirectedGraph, GraphOps}
import repro.platform.{Datastore, Task, TaskState}

/** The correctness gate applied to every task of every pass. A task
  * fails it when it did not finish, did not really run (no `start` log
  * line or no stored `scores.csv`), or its stored answer is wrong:
  *  - CycleRank: differs from `LocalCycleRank.runOnEdges` on the same
  *    graph by more than 1e-9 at any vertex, relative to the score where
  *    it exceeds 1 (the two engines sum cycle weights in different orders);
  *  - PageRank family: does not sum to 1 ± 1e-9, or one more external
  *    `PageRank.step` moves it by more than the tolerance (L1), i.e. it
  *    stopped at the sweep cap rather than converging;
  *  - table1-queryset: the Table I top-5 columns rebuilt from the stored
  *    answers differ from the paper's rows (EXPERIMENTS.md).
  */
final class Gate(spark: SparkSession, w: Workload) {
  import spark.implicits._

  /** Per-reference kernel answers; the inputs are fixed within a run. */
  private val kernel = mutable.Map.empty[(Long, Int), Map[Long, Double]]

  /** The paper's Table I rows (EXPERIMENTS.md), by column. */
  private val TableI: Seq[(String, Option[String], Seq[String])] = Seq(
    ("pagerank", None,
      Seq("United States", "Animal", "Arthropod", "Association football", "Insect")),
    ("cyclerank", Some("Freddie Mercury"),
      Seq("Freddie Mercury", "Queen (band)", "Brian May", "Roger Taylor", "John Deacon")),
    ("personalized-pagerank", Some("Freddie Mercury"),
      Seq("Freddie Mercury", "Queen (band)", "The FM Tribute Concert", "HIV/AIDS", "Queen II")),
    ("cyclerank", Some("Pasta"),
      Seq("Pasta", "Italian cuisine", "Italy", "Spaghetti", "Flour")),
    ("personalized-pagerank", Some("Pasta"),
      Seq("Pasta", "Bolognese sauce", "Carbonara", "Durum", "Italy")))

  /** Check every task of a pass; returns failure reasons by task id and
    * the L1 residual of every PageRank-family vector.
    */
  def check(store: Datastore, tasks: Vector[Task],
            states: Map[String, TaskState]): (Map[String, String], Map[String, Double]) = {
    val failures = mutable.LinkedHashMap.empty[String, String]
    val residuals = mutable.LinkedHashMap.empty[String, Double]
    val stored = mutable.Map.empty[String, Map[Long, Double]]
    for (t <- tasks if !failures.contains(t.id)) {
      val file = store.root.resolve("results").resolve(t.id).resolve("scores.csv")
      states.get(t.id) match {
        case Some(TaskState.Done) =>
        case other => failures(t.id) = s"state $other"
      }
      if (!failures.contains(t.id)) {
        if (!store.readLog(t.id).exists(_.startsWith("start")))
          failures(t.id) = "no start line in the task log"
        else if (!Files.exists(file)) failures(t.id) = "no stored scores.csv"
        else stored(t.id) = collect(store.readResult(t.id).get)
      }
    }
    for (t <- tasks if stored.contains(t.id)) {
      val q = Query(t.algorithm, t.params)
      val scores = stored(t.id)
      val problem: Option[String] = q.algorithm match {
        case "cyclerank" =>
          val ref = kernel.getOrElseUpdate((q.ref.get, q.k),
            LocalCycleRank.runOnEdges(w.edges.toSeq, q.ref.get,
              CycleRank.Config(q.k, Scoring.Exponential)))
          val diff = maxDiff(scores, ref)
          Option.when(diff > 1e-9)(s"differs from LocalCycleRank by $diff")
        case "pagerank" | "personalized-pagerank" =>
          val sum = scores.values.sum
          val r = Gate.residual(spark, w.graph, toDf(scores), q.alpha, q.ref)
          residuals(t.id) = r
          val tol = q.params("tol").toDouble
          if (math.abs(sum - 1.0) > 1e-9) Some(s"scores sum to $sum")
          else Option.when(r > tol)(s"L1 residual $r > tol $tol: not converged")
        case other => Some(s"no correctness check for '$other'")
      }
      problem.foreach(p => failures(t.id) = p)
    }
    if (w.name == "table1-queryset") tableI(tasks, stored.toMap).foreach {
      case (id, p) => if (!failures.contains(id)) failures(id) = p
    }
    (failures.toMap, residuals.toMap)
  }

  private def tableI(tasks: Vector[Task], stored: Map[String, Map[Long, Double]]): Seq[(String, String)] =
    TableI.flatMap { case (alg, refName, expected) =>
      val ref = refName.map(repro.experiments.Tables.idOf(w.graph, _).toString)
      val t = tasks.find(t => t.algorithm == alg && t.params.get("ref") == ref)
        .getOrElse(throw new IllegalStateException(s"Table I column $alg $refName is not in the query set"))
      stored.get(t.id).flatMap { s =>
        val got = TableHarness.topLabels(w.graph, toDf(s), 5)
        Option.when(got != expected)(t.id -> s"Table I column $alg ${refName.getOrElse("")}: $got")
      }
    }

  private def collect(df: DataFrame): Map[Long, Double] =
    df.select("id", "score").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap

  private def toDf(m: Map[Long, Double]): DataFrame = m.toSeq.toDF("id", "score")

  /** Largest difference at any vertex, scaled by `max(1, |b(v)|)`: sums
    * of many cycle weights carry rounding error proportional to their size.
    */
  private def maxDiff(a: Map[Long, Double], b: Map[Long, Double]): Double =
    (a.keySet ++ b.keySet).iterator.map { k =>
      val (x, y) = (a.getOrElse(k, 0.0), b.getOrElse(k, 0.0))
      math.abs(x - y) / math.max(1.0, math.abs(y))
    }.maxOption.getOrElse(0.0)
}

object Gate {

  /** The `PageRank.step` state for `scores` on `g`: uniform teleport, or
    * all teleport mass on `ref`.
    */
  def state(g: DirectedGraph, scores: DataFrame, ref: Option[Long]): DataFrame = {
    val verts = g.vertices
    val t = ref match {
      case Some(r) => when(col("id") === r, lit(1.0)).otherwise(lit(0.0))
      case None    => lit(1.0 / verts.count())
    }
    verts.withColumn("t", t)
      .join(GraphOps.outDegrees(g), Seq("id"))
      .join(scores.select(col("id"), col("score")), Seq("id"), "left")
      .select(col("id"), col("t"), col("outdeg"), coalesce(col("score"), lit(0.0)).as("score"))
      .localCheckpoint(eager = true)
  }

  /** L1 change of one more external `PageRank.step` applied to `scores`. */
  def residual(spark: SparkSession, g: DirectedGraph, scores: DataFrame,
               alpha: Double, ref: Option[Long]): Double = {
    val s = state(g, scores, ref)
    PageRank.step(s, g.edges, alpha)
      .join(s.select(col("id"), col("score").as("prev")), Seq("id"))
      .agg(sum(abs(col("score") - col("prev")))).head().getDouble(0)
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.DirectedGraph

/** Shared helpers for test suites operating on small graphs. */
trait GraphTestKit { self: SparkSpec =>

  /** Build a cleaned graph from literal edges. */
  def graphOf(es: (Long, Long)*): DirectedGraph =
    DirectedGraph.fromEdges(spark, es)

  def graphOfSeq(es: Seq[(Long, Long)]): DirectedGraph =
    DirectedGraph.fromEdges(spark, es)

  /** In-degree per vertex: `(id, indeg)`, zero-filled for sources. */
  def inDegrees(g: DirectedGraph): DataFrame = {
    val d = g.edges.groupBy(col("dst").as("id")).agg(count(lit(1)).as("indeg"))
    g.vertices.join(d, Seq("id"), "left")
      .select(col("id"), coalesce(col("indeg"), lit(0L)).as("indeg"))
  }

  /** Edges that are reciprocated (both `u→v` and `v→u` exist). CycleRank's
    * length-2 cycles are exactly these pairs.
    */
  def reciprocalEdges(g: DirectedGraph): DataFrame = {
    val rev = g.edges.select(col("dst").as("src"), col("src").as("dst"))
    g.edges.intersect(rev)
  }

  /** Collect a `(id, score)` frame to a map. */
  def scoresMap(df: DataFrame): Map[Long, Double] =
    df.select("id", "score").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap

  def assertClose(a: Double, b: Double, tol: Double = 1e-7): Unit =
    assert(math.abs(a - b) <= tol, s"$a vs $b differ by ${math.abs(a - b)} > $tol")

  def assertMapsClose(a: Map[Long, Double], b: Map[Long, Double], tol: Double = 1e-7): Unit = {
    val d = Reference.maxAbsDiff(a, b)
    assert(d <= tol, s"maps differ by $d > $tol:\n  a=$a\n  b=$b")
  }

  /** σ(n)=e⁻ⁿ shorthand used when asserting designed CycleRank scores. */
  def e(n: Int): Double = math.exp(-n.toDouble)
}

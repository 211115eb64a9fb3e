package repro.graph

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Relational operations over [[DirectedGraph]]s.
  *
  * All outputs are plain DataFrames so they can be verified against the
  * DuckDB oracle with ordinary SQL.
  */
object GraphOps {

  /** Canonical cleanup: cast endpoints to long, drop self-loops and
    * duplicate edges. Every loader and generator funnels through here so
    * the algorithms can assume a simple directed graph (as the CycleRank
    * paper does — length-1 cycles are excluded by definition).
    */
  def clean(g: DirectedGraph): DirectedGraph = {
    val e = g.edges
      .select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
    DirectedGraph(e, g.labels)
  }

  /** Out-degree per vertex: `(id, outdeg)`. Vertices with no outgoing edge
    * (dangling) are present with `outdeg = 0`.
    */
  def outDegrees(g: DirectedGraph): DataFrame = {
    val d = g.edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("outdeg"))
    g.vertices.join(d, Seq("id"), "left")
      .select(col("id"), coalesce(col("outdeg"), lit(0L)).as("outdeg"))
  }

  /** Vertices within `maxDist` hops of `source` following edge direction:
    * `(id, dist)` with `dist` the minimum hop count (source itself at 0).
    * One direction of [[cappedBfs]].
    */
  def bfsDistances(g: DirectedGraph, source: Long, maxDist: Int): DataFrame = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    cappedBfs(g, source, maxDist, backward = false)._1.toSeq.toDF("id", "dist")
  }

  /** Capped BFS from `source`, forward along `src→dst` and (if `backward`)
    * backward along `dst→src`, both frontiers advanced together over one
    * `(from, to, fwd)` view of the edges. Each level is one join of that
    * view with the frontier, then `distinct` and `collect`: one Spark
    * action per level, with the frontier and the distances kept on the
    * driver. Stops after `maxDist` levels or when every frontier is empty.
    *
    * @return forward and backward minimum hop counts, `source` at 0 in
    *         both (the backward map is just the source if `!backward`)
    */
  def cappedBfs(g: DirectedGraph, source: Long, maxDist: Int,
                backward: Boolean = true): (Map[Long, Int], Map[Long, Int]) = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val dirs = if (backward) Seq(true, false) else Seq(true)
    val view = dirs.map { fwd =>
      val (from, to) = if (fwd) ("src", "dst") else ("dst", "src")
      g.edges.select(col(from).as("from"), col(to).as("to"), lit(fwd).as("fwd"))
    }.reduce(_ union _)
    val dist = Map(true -> mutable.LongMap(source -> 0), false -> mutable.LongMap(source -> 0))
    var frontier = dirs.map(source -> _)
    var d = 0
    while (d < maxDist && frontier.nonEmpty) {
      d += 1
      frontier = view.join(frontier.toDF("from", "fwd"), Seq("from", "fwd"))
        .select(col("to"), col("fwd")).distinct()
        .collect().map(r => (r.getLong(0), r.getBoolean(1)))
        .filterNot { case (v, fwd) => dist(fwd).contains(v) }.toSeq
      for ((v, fwd) <- frontier) dist(fwd)(v) = d
    }
    (dist(true).toMap, dist(false).toMap)
  }
}

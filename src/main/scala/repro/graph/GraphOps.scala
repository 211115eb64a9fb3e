package repro.graph

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
    * backward along `dst→src`, both frontiers advanced together over the
    * graph's [[IndexedGraph]]. Each level is one narrow Spark job: the two
    * frontiers are broadcast as bit sets, each partition scans its rows of
    * the out- and the in-adjacency side by side and returns the neighbours
    * of its frontier rows, and the driver keeps the distances. No level
    * joins, shuffles or re-reads the edges. Stops after `maxDist` levels or
    * when every frontier is empty.
    *
    * @return forward and backward minimum hop counts, `source` at 0 in
    *         both (the backward map is just the source if `!backward`)
    */
  def cappedBfs(g: DirectedGraph, source: Long, maxDist: Int,
                backward: Boolean = true): (Map[Long, Int], Map[Long, Int]) = {
    val ix = g.index
    val s = ix.indexOf(source)
    if (s < 0) return (Map(source -> 0), Map(source -> 0))
    // dist(0) forward, dist(1) backward; -1 = not reached.
    val dist = Array.fill(2, ix.numVertices)(-1)
    val frontier = Array.fill(2)(new java.util.BitSet)
    for (dir <- 0 to (if (backward) 1 else 0)) { dist(dir)(s) = 0; frontier(dir).set(s) }
    var d = 0
    while (d < maxDist && !frontier.forall(_.isEmpty)) {
      d += 1
      val bFrontier = ix.out.sparkContext.broadcast(frontier)
      val reached = ix.out.zipPartitions(ix.in) { (out, in) =>
        val f = bFrontier.value
        Iterator.single(Array(neighbours(out, f(0)), neighbours(in, f(1))))
      }.collect()
      bFrontier.destroy()
      for (dir <- 0 to 1) {
        frontier(dir) = new java.util.BitSet
        for (part <- reached; v <- part(dir) if dist(dir)(v) < 0) {
          dist(dir)(v) = d
          frontier(dir).set(v)
        }
      }
    }
    def byId(dir: Int): Map[Long, Int] =
      dist(dir).indices.iterator.filter(dist(dir)(_) >= 0).map(v => ix.ids(v) -> dist(dir)(v)).toMap
    (byId(0), if (backward) byId(1) else Map(source -> 0))
  }

  /** The distinct neighbours of the rows of `adj` whose vertex is in `frontier`. */
  private def neighbours(adj: Iterator[(Int, Array[Int])], frontier: java.util.BitSet): Array[Int] = {
    val found = new java.util.BitSet
    if (!frontier.isEmpty) adj.foreach { case (v, ws) => if (frontier.get(v)) ws.foreach(found.set) }
    found.stream().toArray
  }
}

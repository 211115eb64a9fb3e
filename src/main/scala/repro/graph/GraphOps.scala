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

  /** Out-degree per vertex: `(id, outdeg)`, read from the graph's
    * [[IndexedGraph]]. Vertices with no outgoing edge (dangling) are
    * present with `outdeg = 0`.
    */
  def outDegrees(g: DirectedGraph): DataFrame = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val ix = g.index
    ix.ids.indices.map(v => (ix.ids(v), ix.out.degree(v).toLong)).toDF("id", "outdeg")
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
    * backward along `dst→src`, over the graph's driver-side
    * [[IndexedGraph]]: each level expands a frontier by reading its rows of
    * the out- or the in-adjacency, and starts no Spark job. Stops after
    * `maxDist` levels or when the frontier is empty.
    *
    * @return forward and backward minimum hop counts, `source` at 0 in
    *         both (the backward map is just the source if `!backward`)
    */
  def cappedBfs(g: DirectedGraph, source: Long, maxDist: Int,
                backward: Boolean = true): (Map[Long, Int], Map[Long, Int]) = {
    val ix = g.index
    val s = ix.indexOf(source)
    def bfs(adj: IndexedGraph.Csr): Map[Long, Int] = {
      val reached = Map.newBuilder[Long, Int] += source -> 0
      val seen = new java.util.BitSet(ix.numVertices)
      seen.set(s)
      var frontier = Array(s)
      var d = 0
      while (d < maxDist && frontier.nonEmpty) {
        d += 1
        val next = Array.newBuilder[Int]
        for (v <- frontier; j <- adj.offsets(v) until adj.offsets(v + 1)) {
          val w = adj.nbrs(j)
          if (!seen.get(w)) { seen.set(w); next += w; reached += ix.ids(w) -> d }
        }
        frontier = next.result()
      }
      reached.result()
    }
    if (s < 0) (Map(source -> 0), Map(source -> 0))
    else (bfs(ix.out), if (backward) bfs(ix.in) else Map(source -> 0))
  }
}

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
    * duplicate edges. The generators, `DirectedGraph.fromEdges` and
    * `fromLabeledEdges`, and the datastore's dataset reader funnel through
    * here (the loaders' [[IndexedGraph.fromArrays]] drops the same edges)
    * so the algorithms can assume a simple directed graph (as the
    * CycleRank paper does — length-1 cycles are excluded by definition).
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
    * `(id, dist)` with `dist` the minimum hop count (source itself at 0),
    * read from the graph's [[IndexedGraph]] by [[IndexedGraph.distances]].
    */
  def bfsDistances(g: DirectedGraph, source: Long, maxDist: Int): DataFrame = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val ix = g.index
    val s = ix.indexOf(source)
    val reached =
      if (s < 0) Seq(source -> 0)
      else {
        val dist = IndexedGraph.distances(ix.out, s, maxDist)
        ix.ids.indices.filter(dist(_) < Int.MaxValue).map(v => ix.ids(v) -> dist(v))
      }
    reached.toDF("id", "dist")
  }
}

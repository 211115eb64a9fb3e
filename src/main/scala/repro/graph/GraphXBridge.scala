package repro.graph

import org.apache.spark.graphx.{Edge, Graph, VertexId}

/** Conversion from the DataFrame graph representation to GraphX, so
  * iterative algorithms can run as pregel-style vertex computations over
  * DataFrame-loaded graphs (the reproduction target's dataflow shape).
  */
object GraphXBridge {

  /** Build a GraphX graph whose vertex attribute is unit and edge
    * attribute is unit; vertices with no edges are preserved.
    */
  def toGraphX(g: DirectedGraph): Graph[Unit, Unit] = {
    val edgeRdd = g.edges.rdd.map(r => Edge[Unit](r.getLong(0), r.getLong(1), ()))
    val vertRdd = g.vertices.rdd.map(r => (r.getLong(0): VertexId, ()))
    Graph(vertRdd, edgeRdd)
  }
}

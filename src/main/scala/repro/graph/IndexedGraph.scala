package repro.graph

import org.apache.spark.sql.functions.col

/** The compressed sparse row (CSR) index of a [[DirectedGraph]], on the
  * driver: built once per graph by its first engine call
  * ([[DirectedGraph.index]]) and read with plain array loops by every
  * engine after that: PageRank's sweeps, CheiRank's (on the swapped
  * directions), and CycleRank's BFS and support collect. No engine call
  * on an indexed graph starts a Spark job.
  *
  * A vertex's index is its position in `ids`: the sorted, distinct ids of
  * the edges' endpoints and of the labels (labelled isolated vertices are
  * vertices too). [[DirectedGraph.vertices]], `numVertices`, `numEdges`
  * and [[GraphOps.outDegrees]] read them from here.
  *
  * @param ids the sorted vertex ids
  * @param out out-adjacency: row `v` holds the indices of `v`'s successors
  * @param in  in-adjacency: row `v` holds the indices of `v`'s predecessors
  */
final class IndexedGraph private (val ids: Array[Long], val out: IndexedGraph.Csr,
                                  val in: IndexedGraph.Csr) {

  def numVertices: Int = ids.length

  def numEdges: Int = out.nbrs.length

  /** The index of `id`, or a negative number when `id` is not a vertex. */
  def indexOf(id: Long): Int = java.util.Arrays.binarySearch(ids, id)

  def contains(id: Long): Boolean = indexOf(id) >= 0

  /** The index of the transposed graph: the same arrays, directions swapped. */
  def transpose: IndexedGraph = new IndexedGraph(ids, in, out)
}

object IndexedGraph {

  /** One direction of the adjacency: row `v`'s neighbours are
    * `nbrs(offsets(v) until offsets(v + 1))`, sorted.
    */
  final class Csr private[IndexedGraph] (val offsets: Array[Int], val nbrs: Array[Int]) {
    def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  }

  /** Builds `g`'s index from one collect of its edges, packed as longs,
    * plus its label ids.
    */
  def build(g: DirectedGraph): IndexedGraph = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val endpoints = g.edges.select(col("src"), col("dst")).rdd.mapPartitions { rows =>
      val b = Array.newBuilder[Long]
      rows.foreach { r => b += r.getLong(0); b += r.getLong(1) }
      Iterator.single(b.result())
    }.collect().flatten
    val labelIds = g.labels.fold(Array.empty[Long])(_.select(col("id").cast("long")).as[Long].collect())
    val ids = endpoints ++ labelIds
    java.util.Arrays.sort(ids)
    var n = 0 // ids(0 until n) are the distinct ids seen so far, compacted in place
    for (v <- ids if n == 0 || ids(n - 1) != v) { ids(n) = v; n += 1 }
    val m = endpoints.length / 2
    val sorted = ids.take(n)
    val src = Array.tabulate(m)(e => java.util.Arrays.binarySearch(sorted, endpoints(2 * e)))
    val dst = Array.tabulate(m)(e => java.util.Arrays.binarySearch(sorted, endpoints(2 * e + 1)))
    new IndexedGraph(sorted, csr(n, src, dst), csr(n, dst, src))
  }

  /** The rows of the edges `from(e) → to(e)`, each row sorted, so every
    * pass over a row meets its neighbours in the same order.
    */
  private def csr(n: Int, from: Array[Int], to: Array[Int]): Csr = {
    val offsets = new Array[Int](n + 1)
    from.foreach(v => offsets(v + 1) += 1)
    for (v <- 0 until n) offsets(v + 1) += offsets(v)
    val next = offsets.clone()
    val nbrs = new Array[Int](to.length)
    for (e <- to.indices) { nbrs(next(from(e))) = to(e); next(from(e)) += 1 }
    for (v <- 0 until n) java.util.Arrays.sort(nbrs, offsets(v), offsets(v + 1))
    new Csr(offsets, nbrs)
  }
}

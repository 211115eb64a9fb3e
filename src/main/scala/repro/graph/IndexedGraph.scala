package repro.graph

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD

/** The compressed sparse row (CSR) index of a [[DirectedGraph]], built once
  * per graph by its first engine call ([[DirectedGraph.index]]) and read by
  * every engine after that: PageRank's sweeps, CheiRank's (on the swapped
  * directions), and CycleRank's BFS levels and support collect.
  *
  * A vertex's index is its position in `ids`. Each adjacency holds one
  * `(idx, sorted neighbour idxs)` row per vertex with at least one edge in
  * that direction, grouped by one `HashPartitioner` with the session's
  * `spark.sql.shuffle.partitions` parts, sorted by `idx` within a partition
  * and persisted in memory. An adjacency evicted from memory is recomputed
  * from its grouping's shuffle output, so a query still holding an index
  * that [[unpersist]] released finishes correctly.
  *
  * @param ids      the sorted vertex ids, on the driver
  * @param out      out-adjacency `(src, dsts)`
  * @param in       in-adjacency `(dst, srcs)`
  * @param dangling per index, whether the vertex has no out-edge
  * @param sources  per index, whether the vertex has no in-edge
  */
final class IndexedGraph private (
    val ids: Array[Long],
    val out: RDD[(Int, Array[Int])],
    val in: RDD[(Int, Array[Int])],
    val dangling: Array[Boolean],
    sources: Array[Boolean]) {

  def numVertices: Int = ids.length

  /** The index of `id`, or a negative number when `id` is not a vertex. */
  def indexOf(id: Long): Int = java.util.Arrays.binarySearch(ids, id)

  def contains(id: Long): Boolean = indexOf(id) >= 0

  /** The index of the transposed graph: the same RDDs, directions swapped. */
  def transpose: IndexedGraph = new IndexedGraph(ids, in, out, sources, dangling)

  /** Releases both adjacencies' cached blocks. */
  def unpersist(): Unit = {
    out.unpersist(blocking = false)
    in.unpersist(blocking = false)
  }
}

object IndexedGraph {

  /** Builds `g`'s index in three Spark jobs: the vertex-id collect, then
    * one grouping per direction, each persisted and materialised by
    * collecting its keys.
    */
  def build(g: DirectedGraph): IndexedGraph = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val ids = g.vertices.as[Long].collect().sorted
    val n = ids.length
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val pairs = g.edges.rdd.map { r =>
      (java.util.Arrays.binarySearch(ids, r.getLong(0)), java.util.Arrays.binarySearch(ids, r.getLong(1)))
    }
    // Rows and their neighbours are sorted, so every pass over an adjacency
    // meets the same values in the same order, whatever the shuffle's
    // fetch order was: PageRank's sums are bit-identical across runs.
    def adjacency(edges: RDD[(Int, Int)]): (RDD[(Int, Array[Int])], Array[Boolean]) = {
      val adj = edges.groupByKey(part)
        .mapPartitions(_.map { case (v, ws) => (v, ws.toArray.sorted) }.toArray.sortBy(_._1).iterator)
        .persist()
      val none = Array.fill(n)(true)
      adj.keys.collect().foreach(v => none(v) = false)
      (adj, none)
    }
    val (out, dangling) = adjacency(pairs)
    val (in, sources) = adjacency(pairs.map(_.swap))
    new IndexedGraph(ids, out, in, dangling, sources)
  }
}

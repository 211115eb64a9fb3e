package repro.graph

import org.apache.spark.sql.functions.col

/** The compressed sparse row (CSR) index of a [[DirectedGraph]], on the
  * driver: built once per graph by its first engine call
  * ([[DirectedGraph.index]]) and read with plain array loops by every
  * engine after that: PageRank's sweeps, CheiRank's (on the swapped
  * directions), and CycleRank's backward BFS and DFS. No engine call on an
  * indexed graph starts a Spark job.
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

  /** Builds `g`'s index from one collect of its edges plus its label ids. */
  def build(g: DirectedGraph): IndexedGraph = {
    val spark = g.edges.sparkSession
    import spark.implicits._
    val parts = g.edges.select(col("src"), col("dst")).rdd.mapPartitions { rows =>
      val (src, dst) = (Array.newBuilder[Long], Array.newBuilder[Long])
      rows.foreach { r => src += r.getLong(0); dst += r.getLong(1) }
      Iterator.single((src.result(), dst.result()))
    }.collect()
    val labelIds = g.labels.fold(Array.empty[Long])(_.select(col("id").cast("long")).as[Long].collect())
    fromArrays(parts.flatMap(_._1), parts.flatMap(_._2), labelIds)
  }

  /** The index of the edges `src(e) → dst(e)` without self-loops and
    * repeats. Its vertices are the endpoints of the edges kept plus
    * `extraIds`, as after [[GraphOps.clean]]: a vertex that only a
    * self-loop touches is not a vertex, unless it is an extra id.
    */
  def fromArrays(src: Array[Long], dst: Array[Long], extraIds: Array[Long]): IndexedGraph = {
    val (s, d) = (new Array[Long](src.length), new Array[Long](src.length))
    var m = 0 // s(0 until m), d(0 until m) are the edges kept so far
    var e = 0
    while (e < src.length) {
      if (src(e) != dst(e)) { s(m) = src(e); d(m) = dst(e); m += 1 }
      e += 1
    }
    val (keptSrc, keptDst) = (s.take(m), d.take(m))
    val ids = Array.concat(keptSrc, keptDst, extraIds)
    java.util.Arrays.sort(ids)
    var n = 0 // ids(0 until n) are the distinct ids seen so far, compacted in place
    for (v <- ids if n == 0 || ids(n - 1) != v) { ids(n) = v; n += 1 }
    val sorted = ids.take(n)
    val from = keptSrc.map(java.util.Arrays.binarySearch(sorted, _))
    val to = keptDst.map(java.util.Arrays.binarySearch(sorted, _))
    new IndexedGraph(sorted, csr(n, from, to), csr(n, to, from))
  }

  /** Hop counts from `source` along `adj`, at most `maxDist`: `Int.MaxValue`
    * for the vertices not reached within it.
    */
  def distances(adj: Csr, source: Int, maxDist: Int): Array[Int] = {
    val dist = Array.fill(adj.offsets.length - 1)(Int.MaxValue)
    dist(source) = 0
    // The vertices reached, in the order reached: nearer ones first.
    val queue = new Array[Int](dist.length)
    queue(0) = source
    var head = 0
    var tail = 1
    while (head < tail && dist(queue(head)) < maxDist) {
      val v = queue(head)
      head += 1
      for (j <- adj.offsets(v) until adj.offsets(v + 1)) {
        val w = adj.nbrs(j)
        if (dist(w) == Int.MaxValue) { dist(w) = dist(v) + 1; queue(tail) = w; tail += 1 }
      }
    }
    dist
  }

  /** The rows of the edges `from(e) → to(e)`, none a self-loop, each row
    * sorted, so every pass over a row meets its neighbours in the same
    * order, and without repeats.
    */
  private def csr(n: Int, from: Array[Int], to: Array[Int]): Csr = {
    val offsets = new Array[Int](n + 1)
    from.foreach(v => offsets(v + 1) += 1)
    for (v <- 0 until n) offsets(v + 1) += offsets(v)
    val next = offsets.clone()
    val nbrs = new Array[Int](to.length)
    for (e <- to.indices) { nbrs(next(from(e))) = to(e); next(from(e)) += 1 }
    var m = 0 // nbrs(0 until m) are the rows kept so far, compacted in place
    for (v <- 0 until n) {
      val (lo, hi) = (offsets(v), offsets(v + 1))
      java.util.Arrays.sort(nbrs, lo, hi)
      offsets(v) = m
      for (j <- lo until hi if m == offsets(v) || nbrs(m - 1) != nbrs(j)) {
        nbrs(m) = nbrs(j); m += 1
      }
    }
    offsets(n) = m
    new Csr(offsets, java.util.Arrays.copyOf(nbrs, m))
  }
}

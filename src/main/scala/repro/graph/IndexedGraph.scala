package repro.graph

/** The compressed sparse row (CSR) index of a graph, on the driver, built
  * from edge arrays by [[IndexedGraph.fromArrays]]. A [[DirectedGraph]]
  * builds its index once, on its first engine call ([[DirectedGraph.index]]),
  * and every engine after that reads it with plain array loops: PageRank's
  * sweeps, CheiRank's (on the swapped directions), and CycleRank's backward
  * BFS and DFS. No engine call on an indexed graph starts a Spark job. The
  * [[GraphLoader]] parsers return an index, and the datastore stores one
  * as files.
  *
  * A vertex's index is its position in `ids`: the sorted, distinct ids of
  * the edges' endpoints and of the labels (labelled isolated vertices are
  * vertices too). [[DirectedGraph.vertices]], `numVertices`, `numEdges`
  * and [[GraphOps.outDegrees]] read them from here, and the tables and the
  * datastore read a vertex's label from `labels`.
  *
  * @param ids    the sorted vertex ids
  * @param labels `labels(v)` is vertex `v`'s label, or `null` when it has none
  * @param out    out-adjacency: row `v` holds the indices of `v`'s successors
  * @param in     in-adjacency: row `v` holds the indices of `v`'s predecessors
  */
final class IndexedGraph private (val ids: Array[Long], val labels: Array[String],
                                  val out: IndexedGraph.Csr, val in: IndexedGraph.Csr) {

  def numVertices: Int = ids.length

  def numEdges: Int = out.nbrs.length

  /** The index of `id`, or a negative number when `id` is not a vertex. */
  def indexOf(id: Long): Int = java.util.Arrays.binarySearch(ids, id)

  def contains(id: Long): Boolean = indexOf(id) >= 0

  /** `id`'s label, or `id` itself when it is not a labelled vertex. */
  def labelOf(id: Long): String = {
    val v = indexOf(id)
    if (v >= 0 && labels(v) != null) labels(v) else id.toString
  }

  /** The id of the one vertex labelled `label`. Fails when no vertex, or
    * more than one, carries it.
    */
  def idOf(label: String): Long = {
    val carriers = ids.indices.filter(v => label == labels(v)).map(ids(_))
    require(carriers.nonEmpty, s"label '$label' not found")
    require(carriers.size == 1,
      s"label '$label' is carried by more than one vertex: ${carriers.mkString(", ")}")
    carriers.head
  }

  /** The index of the transposed graph: the same arrays, directions swapped. */
  def transpose: IndexedGraph = new IndexedGraph(ids, labels, in, out)
}

object IndexedGraph {

  /** One direction of the adjacency: row `v`'s neighbours are
    * `nbrs(offsets(v) until offsets(v + 1))`, sorted.
    */
  final class Csr private[IndexedGraph] (val offsets: Array[Int], val nbrs: Array[Int]) {
    def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  }

  /** The index of the edges `src(e) → dst(e)` without self-loops and
    * repeats. Its vertices are the endpoints of the edges kept plus
    * `extraIds`, as after [[GraphOps.clean]]: a vertex that only a
    * self-loop touches is not a vertex, unless it is an extra id.
    * `extraLabels(j)`, when given, is the label of `extraIds(j)`; an id
    * given two different labels is rejected.
    */
  def fromArrays(src: Array[Long], dst: Array[Long], extraIds: Array[Long],
                 extraLabels: Array[String] = Array.empty): IndexedGraph = {
    val (s, d) = (new Array[Long](src.length), new Array[Long](src.length))
    var m = 0 // s(0 until m), d(0 until m) are the edges kept so far
    var e = 0
    while (e < src.length) {
      if (src(e) != dst(e)) { s(m) = src(e); d(m) = dst(e); m += 1 }
      e += 1
    }
    val ids = new Array[Long](2 * m + extraIds.length)
    System.arraycopy(s, 0, ids, 0, m)
    System.arraycopy(d, 0, ids, m, m)
    System.arraycopy(extraIds, 0, ids, 2 * m, extraIds.length)
    java.util.Arrays.sort(ids)
    var n = 0 // ids(0 until n) are the distinct ids seen so far, compacted in place
    var i = 0
    while (i < ids.length) {
      if (n == 0 || ids(n - 1) != ids(i)) { ids(n) = ids(i); n += 1 }
      i += 1
    }
    val sorted = java.util.Arrays.copyOf(ids, n)
    val (from, to) = (new Array[Int](m), new Array[Int](m))
    e = 0
    while (e < m) {
      from(e) = java.util.Arrays.binarySearch(sorted, s(e))
      to(e) = java.util.Arrays.binarySearch(sorted, d(e))
      e += 1
    }
    val labels = new Array[String](n)
    var j = 0
    while (j < extraLabels.length) {
      val v = java.util.Arrays.binarySearch(sorted, extraIds(j))
      require(labels(v) == null || labels(v) == extraLabels(j),
        s"vertex ${extraIds(j)} has two labels, '${labels(v)}' and '${extraLabels(j)}'")
      labels(v) = extraLabels(j)
      j += 1
    }
    new IndexedGraph(sorted, labels, csr(n, from, to), csr(n, to, from))
  }

  /** Hop counts from `source` along `adj`, at most `maxDist`: `Int.MaxValue`
    * for the vertices not reached within it.
    */
  def distances(adj: Csr, source: Int, maxDist: Int): Array[Int] = {
    val dist = new Array[Int](adj.offsets.length - 1)
    java.util.Arrays.fill(dist, Int.MaxValue)
    dist(source) = 0
    // The vertices reached, in the order reached: nearer ones first.
    val queue = new Array[Int](dist.length)
    queue(0) = source
    var head = 0
    var tail = 1
    while (head < tail && dist(queue(head)) < maxDist) {
      val v = queue(head)
      head += 1
      var j = adj.offsets(v)
      while (j < adj.offsets(v + 1)) {
        val w = adj.nbrs(j)
        if (dist(w) == Int.MaxValue) { dist(w) = dist(v) + 1; queue(tail) = w; tail += 1 }
        j += 1
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
    var e = 0
    while (e < from.length) { offsets(from(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { offsets(v + 1) += offsets(v); v += 1 }
    val next = offsets.clone()
    val nbrs = new Array[Int](to.length)
    e = 0
    while (e < to.length) { nbrs(next(from(e))) = to(e); next(from(e)) += 1; e += 1 }
    var m = 0 // nbrs(0 until m) are the rows kept so far, compacted in place
    v = 0
    while (v < n) {
      val lo = offsets(v)
      val hi = offsets(v + 1)
      java.util.Arrays.sort(nbrs, lo, hi)
      offsets(v) = m
      var j = lo
      while (j < hi) {
        if (m == offsets(v) || nbrs(m - 1) != nbrs(j)) { nbrs(m) = nbrs(j); m += 1 }
        j += 1
      }
      v += 1
    }
    offsets(n) = m
    new Csr(offsets, java.util.Arrays.copyOf(nbrs, m))
  }
}

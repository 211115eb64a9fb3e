package repro.core

import scala.collection.mutable

/** The CycleRank enumeration kernel — the analogue of the authors'
  * reference C++ implementation: a bounded-depth DFS that enumerates every
  * simple cycle of length ≤ K through the reference node. A path is
  * extended to `w` only if the backward distance from `w` to the reference
  * still lets the cycle close within K edges, which keeps the DFS inside
  * [[CycleRank]]'s support. [[CycleRank.run]] runs it on the collected
  * support.
  */
object LocalCycleRank {

  /** Pure in-memory kernel (also handy for tiny hand-built test graphs).
    * Fails naming `ref` and K when the DFS would extend a path more than
    * [[CycleRank.MaxKernelSteps]] times.
    */
  def runOnEdges(edges: Seq[(Long, Long)], ref: Long, cfg: CycleRank.Config): Map[Long, Double] =
    runOnEdges(edges, ref, cfg, CycleRank.MaxKernelSteps)

  /** [[runOnEdges]] with at most `maxSteps` path extensions. */
  private[core] def runOnEdges(edges: Seq[(Long, Long)], ref: Long, cfg: CycleRank.Config,
                               maxSteps: Long): Map[Long, Double] = {
    // Relabel the vertices to 0 until n once (ref is 0); the DFS then reads
    // only int arrays.
    val index = mutable.LongMap(ref -> 0)
    def idx(v: Long): Int = index.getOrElseUpdate(v, index.size)
    val simple = edges.iterator.filter { case (s, d) => s != d }.distinct
      .map { case (s, d) => (idx(s), idx(d)) }.toArray
    val n = index.size
    val ids = new Array[Long](n)
    index.foreachEntry((v, i) => ids(i) = v)
    val adj  = csr(n, simple)
    val radj = csr(n, simple.map(_.swap))
    // No simple cycle is longer than n edges, so the arrays and the scores
    // are sized by min(K, n): a larger K changes neither.
    val k = math.min(cfg.k, n)
    val r = 0

    // Backward distances to r, up to K-1 (Int.MaxValue beyond). A path of
    // length d reaches w only if fdist(w) <= d, so requiring
    // bdist(w) <= K - d keeps the DFS inside the support fdist + bdist <= K.
    val bdist = Array.fill(n)(Int.MaxValue)
    bdist(r) = 0
    var frontier = Array(r)
    var d = 0
    while (frontier.nonEmpty && d < k - 1) {
      d += 1
      frontier = frontier.flatMap(v => radj(v)).filter(bdist(_) == Int.MaxValue).distinct
      frontier.foreach(v => bdist(v) = d)
    }

    // Cycles per (vertex, length) are counted exactly; the scores are
    // summed from the counts in increasing length, so they do not depend
    // on edge order and exact ties stay exact.
    val counts = new Array[Array[Long]](n)
    val path = new Array[Int](k)
    var len = 1 // path(0 until len) is the current path, path(0) = r
    val onPath = new Array[Boolean](n)
    onPath(r) = true
    var steps = 0L

    def dfs(v: Int): Unit = {
      val ws = adj(v)
      var j = 0
      while (j < ws.length) {
        val w = ws(j)
        if (w == r && len >= 2) {
          var p = 0
          while (p < len) {
            val u = path(p)
            if (counts(u) == null) counts(u) = new Array[Long](k + 1)
            counts(u)(len) += 1
            p += 1
          }
        } else if (len < k && !onPath(w) && bdist(w) <= k - len) {
          steps += 1
          require(steps <= maxSteps,
            s"CycleRank enumeration for reference $ref at K=${cfg.k} exceeded its budget of " +
            s"$maxSteps DFS steps (reached $steps)")
          path(len) = w; len += 1; onPath(w) = true
          dfs(w)
          len -= 1; onPath(w) = false
        }
        j += 1
      }
    }
    dfs(r)
    (0 until n).iterator.filter(counts(_) != null).map { u =>
      ids(u) -> (2 to k).foldLeft(0.0)((acc, l) => acc + cfg.scoring.sigma(l) * counts(u)(l))
    }.filter(_._2 > 0).toMap
  }

  /** Out-neighbour arrays of the vertices 0 until `n`. */
  private def csr(n: Int, edges: Array[(Int, Int)]): Array[Array[Int]] = {
    val deg = new Array[Int](n)
    edges.foreach(e => deg(e._1) += 1)
    val adj = Array.tabulate(n)(v => new Array[Int](deg(v)))
    java.util.Arrays.fill(deg, 0)
    edges.foreach { case (s, t) => adj(s)(deg(s)) = t; deg(s) += 1 }
    adj
  }
}

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
    val simple = edges.filter { case (s, d) => s != d }.distinct
    val adj  = simple.groupMap(_._1)(_._2).map { case (k, v) => k -> v.toArray }
    val radj = simple.groupMap(_._2)(_._1).map { case (k, v) => k -> v.toArray }
    val k = cfg.k

    // Backward distances to `ref`, up to K-1. A path of length d reaches w
    // only if fdist(w) <= d, so requiring bdist(w) <= K - d keeps the DFS
    // inside the support fdist + bdist <= K.
    val bwd = mutable.Map(ref -> 0)
    var frontier = List(ref)
    var d = 0
    while (frontier.nonEmpty && d < k - 1) {
      d += 1
      frontier = frontier
        .flatMap(v => radj.getOrElse(v, Array.empty[Long]))
        .filterNot(bwd.contains).distinct
      frontier.foreach(v => bwd(v) = d)
    }

    // Cycles per (vertex, length) are counted exactly; the scores are
    // summed from the counts in increasing length, so they do not depend
    // on edge order and exact ties stay exact.
    val counts = mutable.LongMap.empty[Array[Long]]
    val path = mutable.ArrayBuffer[Long](ref)
    val onPath = mutable.Set[Long](ref)
    var steps = 0L

    def dfs(v: Long): Unit = {
      for (w <- adj.getOrElse(v, Array.empty[Long])) {
        if (w == ref && path.length >= 2) {
          val n = path.length // cycle length in edges
          path.foreach(u => counts.getOrElseUpdate(u, new Array[Long](k + 1))(n) += 1)
        } else if (path.length < k && !onPath.contains(w)
                   && bwd.get(w).exists(_ <= k - path.length)) {
          steps += 1
          require(steps <= maxSteps,
            s"CycleRank enumeration for reference $ref at K=$k exceeded its budget of " +
            s"$maxSteps DFS steps (reached $steps)")
          path += w; onPath += w
          dfs(w)
          path.remove(path.length - 1); onPath -= w
        }
      }
    }
    dfs(ref)
    counts.iterator.map { case (u, c) =>
      u -> (2 to k).foldLeft(0.0)((acc, n) => acc + cfg.scoring.sigma(n) * c(n))
    }.filter(_._2 > 0).toMap
  }
}

package repro.core

import scala.collection.mutable
import repro.graph.DirectedGraph

/** The CycleRank enumeration kernel — the analogue of the authors'
  * reference C++ implementation: a bounded-depth DFS that enumerates every
  * simple cycle of length ≤ K through the reference node, pruned by
  * forward/backward distance like [[CycleRank]]'s support.
  *
  * [[runOnEdges]] is the kernel [[CycleRank.run]] runs on the collected
  * support; [[run]] collects the whole graph instead and is the
  * single-machine baseline of the scaling bench.
  */
object LocalCycleRank {

  /** Maximum number of edges collected to the driver for the kernel. */
  val MaxDriverEdges: Long = 5_000_000L

  /** Compute CycleRank scores on the whole collected graph. Returns only
    * vertices with a strictly positive score, like [[CycleRank.run]].
    */
  def run(g: DirectedGraph, ref: Long, cfg: CycleRank.Config): Map[Long, Double] = {
    val m = g.numEdges
    require(m <= MaxDriverEdges, s"graph too large for the local baseline ($m edges)")
    val edgeArr = g.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    runOnEdges(edgeArr, ref, cfg)
  }

  /** Pure in-memory kernel (also handy for tiny hand-built test graphs). */
  def runOnEdges(edges: Seq[(Long, Long)], ref: Long, cfg: CycleRank.Config): Map[Long, Double] = {
    val simple = edges.filter { case (s, d) => s != d }.distinct
    val adj  = simple.groupMap(_._1)(_._2).map { case (k, v) => k -> v.toArray }
    val radj = simple.groupMap(_._2)(_._1).map { case (k, v) => k -> v.toArray }
    val k = cfg.k

    def bfs(start: Long, a: Map[Long, Array[Long]], cap: Int): mutable.Map[Long, Int] = {
      val dist = mutable.Map(start -> 0)
      var frontier = List(start)
      var d = 0
      while (frontier.nonEmpty && d < cap) {
        d += 1
        frontier = frontier
          .flatMap(v => a.getOrElse(v, Array.empty[Long]))
          .filterNot(dist.contains).distinct
        frontier.foreach(v => dist(v) = d)
      }
      dist
    }

    val fwd = bfs(ref, adj, k - 1)
    val bwd = bfs(ref, radj, k - 1)
    val support = fwd.keySet
      .filter(v => bwd.contains(v) && fwd(v) + bwd(v) <= k)

    // Cycles per (vertex, length) are counted exactly; the scores are
    // summed from the counts in increasing length, so they do not depend
    // on edge order and exact ties stay exact.
    val counts = mutable.LongMap.empty[Array[Long]]
    val path = mutable.ArrayBuffer[Long](ref)
    val onPath = mutable.Set[Long](ref)

    def dfs(v: Long): Unit = {
      for (w <- adj.getOrElse(v, Array.empty[Long])) {
        if (w == ref && path.length >= 2) {
          val n = path.length // cycle length in edges
          path.foreach(u => counts.getOrElseUpdate(u, new Array[Long](k + 1))(n) += 1)
        } else if (path.length < k && !onPath.contains(w) && support.contains(w)
                   && bwd(w) <= k - path.length) {
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

package repro.core

import repro.graph.IndexedGraph

/** [[CycleRank]]'s kernel on an in-memory edge list, with no Spark session:
  * for hand-built test graphs and for checks that compare the engine with
  * the kernel on a whole collected graph.
  */
object LocalCycleRank {

  /** The positive CycleRank scores of `ref` on the graph of `edges`, whose
    * self-loops and repeats are dropped; empty when `ref` is on no edge.
    * Fails naming `ref` and K when the DFS would extend a path more than
    * [[CycleRank.MaxKernelSteps]] times.
    */
  def runOnEdges(edges: Seq[(Long, Long)], ref: Long, cfg: CycleRank.Config): Map[Long, Double] =
    runOnEdges(edges, ref, cfg, CycleRank.MaxKernelSteps)

  /** [[runOnEdges]] with at most `maxSteps` path extensions. */
  private[core] def runOnEdges(edges: Seq[(Long, Long)], ref: Long, cfg: CycleRank.Config,
                               maxSteps: Long): Map[Long, Double] = {
    val ix = IndexedGraph.fromArrays(edges.map(_._1).toArray, edges.map(_._2).toArray, Array(ref))
    CycleRank.scores(ix, ref, cfg, maxSteps)
  }
}

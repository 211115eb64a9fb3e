package repro.core

import repro.graph.DirectedGraph

/** CheiRank (Chepelianskii, paper §II): PageRank computed on the
  * transposed graph — relevance driven by *outgoing* instead of incoming
  * connections. The personalized variant teleports to a reference set,
  * exactly mirroring Personalized PageRank.
  */
object CheiRank {

  /** CheiRank: PR(Gᵀ), the PageRank kernel on the transpose of the graph's
    * index, personalized when `cfg.teleport` is set; one score per vertex.
    */
  def run(g: DirectedGraph, cfg: PageRank.Config = PageRank.Config()): Scores =
    new Scores(g.index.ids, PageRank.scores(g.index.transpose, cfg))
}

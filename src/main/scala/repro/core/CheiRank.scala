package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.DirectedGraph

/** CheiRank (Chepelianskii, paper §II): PageRank computed on the
  * transposed graph — relevance driven by *outgoing* instead of incoming
  * connections. The personalized variant teleports to a reference set,
  * exactly mirroring Personalized PageRank.
  */
object CheiRank {

  /** CheiRank: PR(Gᵀ), personalized when `cfg.teleport` is set. Returns
    * `(id, score)`.
    */
  def run(g: DirectedGraph, cfg: PageRank.Config = PageRank.Config()): DataFrame =
    PageRank.run(g.transpose, cfg)
}

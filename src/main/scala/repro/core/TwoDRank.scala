package repro.core

import repro.graph.DirectedGraph

/** 2DRank (Zhirov et al., paper §II): a ranking — not a score — that
  * combines the PageRank rank position K and the CheiRank rank position
  * K* of every node.
  *
  * Construction (square sweep over the (K, K*) plane, DESIGN.md): nodes
  * are emitted in order of increasing `L = max(K, K*)`; within one L,
  * first the vertical edge of the square (K = L) ordered by K*, then the
  * horizontal edge (K* = L, K < L) ordered by K. Because the datastore
  * and the tables read scores, [[run]] returns the descending pseudo-score
  * `1/rank` of each vertex; [[combine]]'s [[Sweep]] holds the positions.
  */
object TwoDRank {

  /** The 2DRank of the vertices of one index: `order(p)` is the vertex at
    * 2DRank p + 1, and `k(v)` and `kstar(v)` are vertex v's PageRank and
    * CheiRank positions, from 1.
    */
  final case class Sweep(order: Array[Int], k: Array[Int], kstar: Array[Int])

  /** The square sweep over PageRank and CheiRank scores aligned with one
    * sorted id order, each ranked by [[Ranking]]. K and K* are
    * permutations of 1..n, so each L has one vertex with K = L and one with
    * K* = L: the sweep emits the first if its K* ≤ L, then the second if
    * its K < L.
    */
  def combine(pr: Array[Double], chei: Array[Double]): Sweep = {
    val (byK, byKstar) = (Ranking.order(pr), Ranking.order(chei))
    val (k, kstar) = (new Array[Int](pr.length), new Array[Int](pr.length))
    for (p <- byK.indices) { k(byK(p)) = p + 1; kstar(byKstar(p)) = p + 1 }
    val order = new Array[Int](pr.length)
    var p = 0
    for (l <- 1 to pr.length) {
      val vertical = byK(l - 1)
      if (kstar(vertical) <= l) { order(p) = vertical; p += 1 }
      val horizontal = byKstar(l - 1)
      if (k(horizontal) < l) { order(p) = horizontal; p += 1 }
    }
    Sweep(order, k, kstar)
  }

  /** 2DRank from PageRank and CheiRank under the same `cfg`; personalized
    * (Personalized PageRank and Personalized CheiRank) when `cfg.teleport`
    * is set. Both run on the graph's index, so their scores share its id
    * order and a run starts no Spark job. Returns `1/rank` per vertex, in
    * the index's id order.
    */
  def run(g: DirectedGraph, cfg: PageRank.Config = PageRank.Config()): Scores = {
    val ix = g.index
    val s = combine(PageRank.scores(ix, cfg), PageRank.scores(ix.transpose, cfg))
    val values = new Array[Double](ix.numVertices)
    for (p <- s.order.indices) values(s.order(p)) = 1.0 / (p + 1)
    new Scores(ix.ids, values)
  }
}

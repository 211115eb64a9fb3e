package repro.core

/** Top-k comparisons of two engines' scores, for the shape tests. Ties are
  * broken by ascending id, as in [[Ranking]].
  */
object TopK {

  /** Top-k `(id, score)` pairs by descending score (id-ascending tie-break). */
  def apply(scores: Scores, k: Int): Seq[(Long, Double)] =
    Ranking.order(scores.values).take(k).toSeq.map(i => (scores.ids(i), scores.values(i)))

  /** Top-k node ids only. */
  def ids(scores: Scores, k: Int): Seq[Long] = apply(scores, k).map(_._1)

  /** Fraction of `a`'s top-k that also appears in `b`'s top-k — the
    * "popularity leakage" metric: PPR's overlap with global PageRank is
    * expected to exceed CycleRank's.
    */
  def overlap(a: Scores, b: Scores, k: Int): Double = {
    val sa = ids(a, k).toSet
    val sb = ids(b, k).toSet
    if (sa.isEmpty) 0.0 else sa.intersect(sb).size.toDouble / sa.size
  }

  /** Jaccard similarity of two top-k id sets. */
  def jaccard(a: Scores, b: Scores, k: Int): Double = {
    val sa = ids(a, k).toSet
    val sb = ids(b, k).toSet
    val u  = sa.union(sb).size
    if (u == 0) 1.0 else sa.intersect(sb).size.toDouble / u
  }
}

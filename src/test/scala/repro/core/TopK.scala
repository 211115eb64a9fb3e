package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Top-k comparisons of two score frames, for the shape tests. Ties are
  * broken by ascending id, as in [[Ranking]].
  */
object TopK {

  /** Top-k rows by descending score (id-ascending tie-break), collected. */
  def apply(scores: DataFrame, k: Int): Seq[(Long, Double)] =
    scores.orderBy(col("score").desc, col("id").asc).limit(k)
      .select(col("id"), col("score"))
      .collect().toSeq.map(r => (r.getLong(0), r.getDouble(1)))

  /** Top-k node ids only. */
  def ids(scores: DataFrame, k: Int): Seq[Long] = apply(scores, k).map(_._1)

  /** Fraction of `a`'s top-k that also appears in `b`'s top-k — the
    * "popularity leakage" metric: PPR's overlap with global PageRank is
    * expected to exceed CycleRank's.
    */
  def overlap(a: DataFrame, b: DataFrame, k: Int): Double = {
    val sa = ids(a, k).toSet
    val sb = ids(b, k).toSet
    if (sa.isEmpty) 0.0 else sa.intersect(sb).size.toDouble / sa.size
  }

  /** Jaccard similarity of two top-k id sets. */
  def jaccard(a: DataFrame, b: DataFrame, k: Int): Double = {
    val sa = ids(a, k).toSet
    val sb = ids(b, k).toSet
    val u  = sa.union(sb).size
    if (u == 0) 1.0 else sa.intersect(sb).size.toDouble / u
  }
}

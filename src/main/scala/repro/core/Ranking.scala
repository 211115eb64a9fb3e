package repro.core

/** Rank positions: by score descending, ties by ascending node id, so results
  * are deterministic (DESIGN.md, "Documented algorithmic choices"). This is
  * the one implementation of that rule: 2DRank ranks PageRank and CheiRank
  * with it, and [[TableHarness.topLabels]] picks the tables' top k with it.
  */
object Ranking {

  /** The positions of `scores` in rank order, so the position at p has
    * rank p + 1: by score descending, ties by ascending position. Scores
    * aligned with sorted ids, as an [[repro.graph.IndexedGraph]]'s are,
    * thus tie by ascending id.
    */
  def order(scores: Array[Double]): Array[Int] =
    // sortWith is stable: tied positions keep their ascending order.
    Array.range(0, scores.length).sortWith((a, b) => java.lang.Double.compare(scores(a), scores(b)) > 0)
}

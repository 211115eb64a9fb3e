package repro.core

/** An engine's answer on the driver: `values(i)` is the score of vertex
  * `ids(i)`, the ids strictly ascending. PageRank, CheiRank and 2DRank
  * share their index's id array and score every vertex; CycleRank holds
  * only the vertices with a positive score. The datastore writes it as
  * `id,score` lines and the tables rank `values` with [[Ranking.order]],
  * whose ties by position are then ties by id.
  */
final class Scores(val ids: Array[Long], val values: Array[Double]) {
  require(ids.length == values.length, s"${ids.length} ids for ${values.length} scores")
  require((1 until ids.length).forall(i => ids(i - 1) < ids(i)), "score ids are not strictly ascending")

  /** The number of scored vertices. */
  def count(): Long = ids.length.toLong

  def toMap: Map[Long, Double] = ids.iterator.zip(values.iterator).toMap
}

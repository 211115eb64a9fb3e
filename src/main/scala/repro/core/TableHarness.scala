package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.DirectedGraph

/** Renders the paper-style "top-k per algorithm" tables (Tables I–III)
  * from score frames, resolving node ids to labels with the graph's index.
  */
object TableHarness {

  /** One table column: a header (algorithm + reference) and its top-k
    * entry labels, padded with "–" when fewer than k nodes scored — the
    * paper's Table III convention.
    */
  final case class Column(title: String, entries: Seq[String])

  /** Top-k labels of a `(id, score)` frame on graph `g`, by score
    * descending then id ascending ([[Ranking]]); an id with no label stands
    * for itself. The frame is collected and ranked on the driver, and the
    * labels are read from the graph's index.
    *
    * @param excludeRef drop this node from the list first (Table II/III
    *                   convention; Table I keeps the reference as row 1)
    */
  def topLabels(g: DirectedGraph, scores: DataFrame, k: Int,
                excludeRef: Option[Long] = None): Seq[String] = {
    val rows = scores.select(col("id"), col("score")).collect()
      .map(r => (r.getLong(0), r.getDouble(1)))
      .filterNot { case (id, _) => excludeRef.contains(id) }
      .sortBy(_._1) // so that Ranking's ties by position are ties by id
    val ix = g.index
    Ranking.order(rows.map(_._2)).take(k).toSeq.map(i => ix.labelOf(rows(i)._1)).padTo(k, "–")
  }

  /** Fixed-width ASCII rendering of a table, row per rank. */
  def render(caption: String, columns: Seq[Column]): String = {
    val k = columns.map(_.entries.size).max
    val headers = "#" +: columns.map(_.title)
    val rows = (0 until k).map { i =>
      (i + 1).toString +: columns.map(c => c.entries.lift(i).getOrElse("–"))
    }
    val all = headers +: rows
    val widths = headers.indices.map(c => all.map(_(c).length).max)
    def fmt(row: Seq[String]) =
      row.zip(widths).map { case (s, w) => s.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(caption, fmt(headers), sep) ++ rows.map(fmt)).mkString("\n")
  }
}

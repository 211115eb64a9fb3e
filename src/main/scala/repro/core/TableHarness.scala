package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.DirectedGraph

/** Renders the paper-style "top-k per algorithm" tables (Tables I–III)
  * from engine scores, resolving node ids to labels with the graph's index.
  */
object TableHarness {

  /** One table column: a header (algorithm + reference) and its top-k
    * entry labels, padded with "–" when fewer than k nodes scored — the
    * paper's Table III convention.
    */
  final case class Column(title: String, entries: Seq[String])

  /** Top-k labels of `scores` on graph `g`, by score descending then id
    * ascending ([[Ranking]]); an id with no label stands for itself. The
    * labels are read from the graph's index.
    *
    * @param excludeRef drop this node from the list first (Table II/III
    *                   convention; Table I keeps the reference as row 1)
    */
  def topLabels(g: DirectedGraph, scores: Scores, k: Int,
                excludeRef: Option[Long] = None): Seq[String] = {
    val ix = g.index
    Ranking.order(scores.values).iterator.map(scores.ids(_)).filterNot(excludeRef.contains)
      .take(k).map(ix.labelOf).toSeq.padTo(k, "–")
  }

  /** [[topLabels]] of an `(id, score)` frame: it collects the frame into
    * [[Scores]] and delegates. perfbench's gate is its caller, with the
    * frames it reads back from the datastore; ROADMAP item 7 removes it.
    */
  def topLabels(g: DirectedGraph, scores: DataFrame, k: Int): Seq[String] = {
    val rows = scores.select("id", "score").collect().map(r => (r.getLong(0), r.getDouble(1))).sortBy(_._1)
    topLabels(g, new Scores(rows.map(_._1), rows.map(_._2)), k)
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

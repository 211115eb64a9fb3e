package repro.graph

import java.nio.charset.CodingErrorAction
import java.util.regex.Pattern
import scala.collection.mutable
import scala.io.{Codec, Source}
import scala.util.Using

/** Parsers for the demo's three upload formats (paper §IV-B): edgelist CSV,
  * Pajek, and the authors' ASD format. Each reads its file once on the
  * driver and returns the [[IndexedGraph]] of what it read, built by
  * [[IndexedGraph.fromArrays]], which drops self-loops and repeated edges;
  * no loader touches Spark. Ids parse as Spark's `try_cast` to long: `+5`
  * is 5; `1.5`, `0x10` and `x` are rejected. A rejection names the file,
  * the 1-based line number and the line.
  */
object GraphLoader {

  /** The file's non-blank lines, trimmed, with their 1-based numbers; bytes
    * that are not UTF-8 read as U+FFFD, as in Spark's text reader.
    */
  private def numberedLines(path: String): Vector[(Int, String)] = {
    val codec = Codec.UTF8.onMalformedInput(CodingErrorAction.REPLACE)
    Using.resource(Source.fromFile(path)(codec))(source =>
      Iterator.from(1).zip(source.getLines().map(_.trim)).filter(_._2.nonEmpty).toVector)
  }

  private def reject(what: String, problem: String, lineNo: Int, line: String): Nothing =
    throw new IllegalArgumentException(s"$what $problem at line $lineNo: '$line'")

  /** The index of `edges` plus the vertices `ids`, where `ids(j)` is
    * labelled `labels(j)`.
    */
  private def index(edges: Seq[(Long, Long)], ids: Array[Long], labels: Array[String]): IndexedGraph =
    IndexedGraph.fromArrays(edges.map(_._1).toArray, edges.map(_._2).toArray, ids, labels)

  // The field separators, compiled once (`String.split` compiles per line).
  private val CsvSep = Pattern.compile("[,;\\s]+")
  private val Blanks = Pattern.compile("\\s+")

  /** `(src, dst)` from the first two fields of `line`, split on `sep`. */
  private def endpoints(what: String, lineNo: Int, line: String, sep: Pattern): (Long, Long) =
    sep.split(line).take(2).flatMap(_.toLongOption) match {
      case Array(src, dst) => (src, dst)
      case _ => reject(what, "contains non-numeric endpoints", lineNo, line)
    }

  /** Edgelist CSV: one `src,dst` pair per line; `#` comments and blank
    * lines are ignored; the separator may be a comma, semicolon, tab or
    * whitespace (Gephi's CSV dialect family).
    */
  def edgeListCsv(path: String): IndexedGraph = index(edgeList(path), Array.empty, Array.empty)

  /** The `(src, dst)` lines of an edgelist CSV, as [[edgeListCsv]] reads
    * them, with their self-loops and repeats.
    */
  private[repro] def edgeList(path: String): Vector[(Long, Long)] =
    numberedLines(path).collect {
      case (no, line) if !line.startsWith("#") => endpoints(s"edgelist $path", no, line, CsvSep)
    }

  private val QuotedLabel = "\"([^\"]*)\"".r

  /** Pajek .net: `*Vertices N` declares the vertices 1..N; `id "label"`
    * lines may follow (a vertex without a line, or without a quoted label,
    * is labelled with its id), then `*Arcs` (directed) and/or `*Edges`
    * (undirected — loaded in both directions). Markers are case-insensitive
    * and may repeat; `%` lines are comments. A vertex or arc id outside
    * 1..N is rejected.
    */
  def pajek(path: String): IndexedGraph = {
    val what = s"pajek $path"
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    val labels = mutable.LongMap.empty[(Int, String)] // id -> (line number, label)
    var section = "" // the last marker's first word, lower-cased
    var n = -1L // the vertex count of the last *Vertices line; -1 before it
    def vertex(id: Long, no: Int, line: String): Long =
      if (n < 0) reject(what, "has an arc before its *Vertices N line", no, line)
      else if (id >= 1 && id <= n) id
      else reject(what, s"has a vertex id outside 1..$n", no, line)
    def arc(no: Int, line: String): (Long, Long) = {
      val (src, dst) = endpoints(what, no, line, Blanks)
      (vertex(src, no, line), vertex(dst, no, line))
    }
    for ((no, line) <- numberedLines(path) if !line.startsWith("%")) {
      if (line.startsWith("*")) {
        val words = Blanks.split(line)
        section = words(0).toLowerCase
        if (section == "*vertices")
          n = words.lift(1).flatMap(_.toLongOption).filter(_ >= 0)
            .getOrElse(reject(what, "needs a vertex count N >= 0 in its *Vertices N line", no, line))
      } else section match {
        case "*vertices" =>
          val id = vertex(line.takeWhile(_.isDigit).toLongOption
            .getOrElse(reject(what, "has a vertex line with no numeric id", no, line)), no, line)
          labels.get(id).foreach { case (first, _) =>
            reject(what, s"declares vertex $id twice, at line $first and", no, line) }
          val label = QuotedLabel.findFirstMatchIn(line).map(_.group(1)).filter(_.nonEmpty)
          labels(id) = (no, label.getOrElse(id.toString))
        case "*arcs" => edges += arc(no, line)
        case "*edges" =>
          val (src, dst) = arc(no, line)
          edges += ((src, dst)) += ((dst, src))
        case _ => reject(what, "has a line outside a *Vertices, *Arcs or *Edges section", no, line)
      }
    }
    require(n >= 0, s"$what: missing *Vertices")
    val ids = (1L to n).toArray
    index(edges.toSeq, ids, ids.map(id => labels.get(id).fold(id.toString)(_._2)))
  }

  /** ASD (authors' format, spec assumed per DESIGN.md): a header `N M`, then
    * `M` lines `src dst` with ids in `[0, N)`. The graph has all `N` vertices;
    * isolated ones are id-labelled.
    */
  def asd(path: String): IndexedGraph = {
    val what = s"ASD $path"
    val lines = numberedLines(path)
    require(lines.nonEmpty, s"$what has no header line 'N M'")
    val (headerNo, header) = lines.head
    val (n, m) = Blanks.split(header).map(_.toLongOption) match {
      case Array(Some(n), Some(m)) if n >= 0 && m >= 0 => (n, m)
      case _ => reject(what, "needs a header 'N M' with N, M >= 0", headerNo, header)
    }
    val body = lines.tail
    if (body.length != m)
      reject(what, s"header declares $m edges but the body has ${body.length}; header", headerNo, header)
    val edges = body.map { case (no, line) =>
      val (src, dst) = endpoints(what, no, line, Blanks)
      if (src < 0 || src >= n || dst < 0 || dst >= n)
        reject(what, s"has an edge endpoint outside [0, $n)", no, line)
      (src, dst)
    }
    val ids = (0L until n).toArray
    index(edges, ids, ids.map(_.toString))
  }
}

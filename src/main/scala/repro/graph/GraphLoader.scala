package repro.graph

import java.nio.charset.CodingErrorAction
import scala.collection.mutable
import scala.io.{Codec, Source}
import scala.util.Using
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col

/** Loaders for the demo's three upload formats (paper §IV-B): edgelist CSV,
  * Pajek, and the authors' ASD format. Each reads its file once on the
  * driver, so a load starts no Spark job. Ids parse as Spark's `try_cast` to
  * long: `+5` is 5; `1.5`, `0x10` and `x` are rejected. A rejection names
  * the file, the 1-based line number and the line.
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

  /** `(src, dst)` from the first two fields of `line`, split on `sep`. */
  private def endpoints(what: String, lineNo: Int, line: String, sep: String): (Long, Long) =
    line.split(sep).take(2).flatMap(_.toLongOption) match {
      case Array(src, dst) => (src, dst)
      case _ => reject(what, "contains non-numeric endpoints", lineNo, line)
    }

  /** Edgelist CSV: one `src,dst` pair per line; `#` comments and blank
    * lines are ignored; the separator may be a comma, semicolon, tab or
    * whitespace (Gephi's CSV dialect family).
    */
  def edgeListCsv(spark: SparkSession, path: String): DirectedGraph = {
    import spark.implicits._
    val edges = numberedLines(path).collect {
      case (no, line) if !line.startsWith("#") => endpoints(s"edgelist $path", no, line, "[,;\\s]+")
    }
    GraphOps.clean(DirectedGraph(edges.toDF("src", "dst")))
  }

  private val QuotedLabel = "\"([^\"]*)\"".r

  /** Pajek .net: `*Vertices N` followed by `id "label"` lines (an unlabelled
    * vertex is labelled with its id), then `*Arcs` (directed) and/or `*Edges`
    * (undirected — loaded in both directions). Markers are case-insensitive
    * and may repeat; `%` lines are comments.
    */
  def pajek(spark: SparkSession, path: String): DirectedGraph = {
    import spark.implicits._
    val what = s"pajek $path"
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    val labels = mutable.LinkedHashMap.empty[Long, (Int, String)] // id -> (line number, label)
    var section = "" // the last marker's first word, lower-cased
    var sawVertices = false
    for ((no, line) <- numberedLines(path) if !line.startsWith("%")) {
      if (line.startsWith("*")) {
        section = line.split("\\s+")(0).toLowerCase
        sawVertices ||= section == "*vertices"
      } else section match {
        case "*vertices" =>
          val id = line.takeWhile(_.isDigit).toLongOption
            .getOrElse(reject(what, "has a vertex line with no numeric id", no, line))
          labels.get(id).foreach { case (first, _) =>
            reject(what, s"declares vertex $id twice, at line $first and", no, line) }
          val label = QuotedLabel.findFirstMatchIn(line).map(_.group(1)).filter(_.nonEmpty)
          labels(id) = (no, label.getOrElse(id.toString))
        case "*arcs" => edges += endpoints(what, no, line, "\\s+")
        case "*edges" =>
          val (src, dst) = endpoints(what, no, line, "\\s+")
          edges += ((src, dst)) += ((dst, src))
        case _ => reject(what, "has a line outside a *Vertices, *Arcs or *Edges section", no, line)
      }
    }
    require(sawVertices, s"$what: missing *Vertices")
    val labelRows = labels.toSeq.map { case (id, (_, label)) => (id, label) }.toDF("id", "label")
    GraphOps.clean(DirectedGraph(edges.toSeq.toDF("src", "dst"), Some(labelRows)))
  }

  /** ASD (authors' format, spec assumed per DESIGN.md): a header `N M`, then
    * `M` lines `src dst` with ids in `[0, N)`. The graph has all `N` vertices;
    * isolated ones are id-labelled.
    */
  def asd(spark: SparkSession, path: String): DirectedGraph = {
    import spark.implicits._
    val what = s"ASD $path"
    val lines = numberedLines(path)
    require(lines.nonEmpty, s"$what has no header line 'N M'")
    val (headerNo, header) = lines.head
    val (n, m) = header.split("\\s+").map(_.toLongOption) match {
      case Array(Some(n), Some(m)) if n >= 0 && m >= 0 => (n, m)
      case _ => reject(what, "needs a header 'N M' with N, M >= 0", headerNo, header)
    }
    val body = lines.tail
    if (body.length != m)
      reject(what, s"header declares $m edges but the body has ${body.length}; header", headerNo, header)
    val edges = body.map { case (no, line) =>
      val (src, dst) = endpoints(what, no, line, "\\s+")
      if (src < 0 || src >= n || dst < 0 || dst >= n)
        reject(what, s"has an edge endpoint outside [0, $n)", no, line)
      (src, dst)
    }
    val vertices = spark.range(n).select(col("id"), col("id").cast("string").as("label"))
    GraphOps.clean(DirectedGraph(edges.toDF("src", "dst"), Some(vertices)))
  }
}

package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Loaders for the demo's three upload formats (paper §IV-B): edgelist CSV,
  * Pajek, and the authors' ASD format.
  *
  * Parsing is distributed: files are read with `spark.read.text`; Pajek's
  * stateful sections are resolved by line number (only the two marker lines
  * are collected to the driver). Ids are read with `try_cast`, so a
  * non-numeric id becomes null and is rejected with a message naming the
  * file, instead of failing inside Spark's ANSI cast. Nothing is cached:
  * the Pajek and ASD checks each re-read the file, which the datastore
  * does once per upload, and a cached frame would outlive the call.
  */
object GraphLoader {

  /** `(src, dst)` from the first two fields of each line, split on `sep`. */
  private def endpoints(lines: DataFrame, sep: String): DataFrame = {
    val p = split(col("line"), sep)
    lines.select(element_at(p, 1).try_cast("long").as("src"),
                 element_at(p, 2).try_cast("long").as("dst"))
  }

  private def requireNumeric(edges: DataFrame, what: String): Unit =
    require(edges.where(col("src").isNull || col("dst").isNull).isEmpty,
      s"$what contains non-numeric endpoints")

  /** Edgelist CSV: one `src,dst` pair per line; `#` comments and blank
    * lines are ignored; the separator may be a comma, semicolon, tab or
    * whitespace (Gephi's CSV dialect family).
    */
  def edgeListCsv(spark: SparkSession, path: String): DirectedGraph = {
    val lines = spark.read.text(path)
      .select(trim(col("value")).as("line"))
      .where(length(col("line")) > 0 && !col("line").startsWith("#"))
    val edges = endpoints(lines, "[,;\\s]+")
    requireNumeric(edges, s"edgelist $path")
    GraphOps.clean(DirectedGraph(edges))
  }

  /** Pajek .net: `*Vertices N` followed by `id "label"` lines, then `*Arcs`
    * (directed) and/or `*Edges` (undirected — loaded in both directions).
    */
  def pajek(spark: SparkSession, path: String): DirectedGraph = {
    import spark.implicits._
    val indexed = spark.read.text(path).rdd.zipWithIndex()
      .map { case (row, i) => (i, row.getString(0).trim) }
      .toDF("lineno", "line")
      .where(length(col("line")) > 0 && !col("line").startsWith("%"))

    def markerLine(re: String): Option[Long] = {
      val m = indexed.where(lower(col("line")).rlike(re)).select(min("lineno")).head()
      if (m.isNullAt(0)) None else Some(m.getLong(0))
    }
    val vStart = markerLine("^\\*vertices").getOrElse(
      throw new IllegalArgumentException(s"pajek $path: missing *Vertices"))
    val aStart = markerLine("^\\*arcs")
    val eStart = markerLine("^\\*edges")
    val sectionEnds = Seq(aStart, eStart).flatten.sorted
    val vEnd = sectionEnds.headOption.getOrElse(Long.MaxValue)

    val vertexLines = indexed
      .where(col("lineno") > vStart && col("lineno") < vEnd)
    val labels = vertexLines.select(
      regexp_extract(col("line"), "^(\\d+)", 1).try_cast("long").as("id"),
      regexp_extract(col("line"), "\"([^\"]*)\"", 1).as("rawlabel"))
      .select(col("id"),
        when(col("rawlabel") === "", col("id").cast("string"))
          .otherwise(col("rawlabel")).as("label"))

    def pairsIn(start: Option[Long]): DataFrame = start match {
      case None => spark.emptyDataset[(Long, Long)].toDF("src", "dst")
      case Some(s) =>
        val end = sectionEnds.find(_ > s).getOrElse(Long.MaxValue)
        endpoints(indexed.where(col("lineno") > s && col("lineno") < end), "\\s+")
    }
    val arcs  = pairsIn(aStart)
    val undir = pairsIn(eStart)
    requireNumeric(arcs.union(undir), s"pajek $path")
    require(labels.where(col("id").isNull).isEmpty, s"pajek $path: a vertex line has no numeric id")
    val edges = arcs
      .union(undir)
      .union(undir.select(col("dst").as("src"), col("src").as("dst")))
    GraphOps.clean(DirectedGraph(edges, Some(labels)))
  }

  /** ASD (authors' format, spec assumed per DESIGN.md): first line `N M`,
    * then `M` lines `src dst` with 0-based ids. The header is validated
    * against the body. The graph has all `N` vertices, isolated ones
    * included: they are id-labelled.
    */
  def asd(spark: SparkSession, path: String): DirectedGraph = {
    import spark.implicits._
    val indexed = spark.read.text(path).rdd.zipWithIndex()
      .map { case (row, i) => (i, row.getString(0).trim) }
      .toDF("lineno", "line")
      .where(length(col("line")) > 0)
    val first = indexed.orderBy("lineno").head()
    val (headerLine, header) = (first.getLong(0), first.getString(1))
    val hp = header.split("\\s+").flatMap(_.toLongOption)
    require(hp.length == 2, s"ASD $path: header must be 'N M', got '$header'")
    val Array(n, m) = hp
    val body = endpoints(indexed.where(col("lineno") > headerLine), "\\s+")
    require(body.count() == m, s"ASD $path: header declares $m edges")
    requireNumeric(body, s"ASD $path")
    val bad = body.where(col("src") < 0 || col("src") >= n ||
                         col("dst") < 0 || col("dst") >= n)
    require(bad.isEmpty, s"ASD $path: edge endpoints outside [0, $n)")
    val vertices = spark.range(n).select(col("id"), col("id").cast("string").as("label"))
    GraphOps.clean(DirectedGraph(body, Some(vertices)))
  }
}

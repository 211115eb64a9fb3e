package repro.graph

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._

/** A directed graph held as DataFrames, plus the driver-side CSR [[index]]
  * that the engines read, built by the first engine call on the instance.
  *
  * @param edges  two-column DataFrame `(src: long, dst: long)`; assumed
  *               deduplicated and self-loop-free once [[GraphOps.clean]]
  *               has been applied.
  * @param labels optional `(id: long, label: string)` mapping for display;
  *               algorithms operate on ids only.
  */
final case class DirectedGraph(edges: DataFrame, labels: Option[DataFrame] = None) {

  // How the index is made: built from this graph, or (for a transpose)
  // taken from its source graph's index with the directions swapped.
  private var indexSource: () => IndexedGraph = () => DirectedGraph.build(this)
  private var built: Option[IndexedGraph] = None

  /** The graph's CSR index, built by the first call on this instance and
    * shared by every later one; concurrent first calls build it once.
    */
  def index: IndexedGraph = synchronized {
    built.getOrElse { val ix = indexSource(); built = Some(ix); ix }
  }

  /** Distinct vertex ids appearing as an endpoint of any edge, plus any
    * labelled isolated vertices: `(id)`, sorted, read from the [[index]].
    */
  def vertices: DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    index.ids.toSeq.toDF("id")
  }

  /** Number of distinct vertices, read from the [[index]]. */
  def numVertices: Long = index.numVertices

  /** Number of edges, read from the [[index]]. */
  def numEdges: Long = index.numEdges

  /** Graph with every edge reversed (used by CheiRank); its index is this
    * graph's index with the two directions swapped.
    */
  def transpose: DirectedGraph = {
    val t = DirectedGraph(edges.select(col("dst").as("src"), col("src").as("dst")), labels)
    t.indexSource = () => index.transpose
    t
  }
}

object DirectedGraph {

  /** Builds `g`'s index from one collect of its edges plus one of its
    * `(id, label)` rows: the only read of a labels frame.
    */
  private def build(g: DirectedGraph): IndexedGraph = {
    val parts = g.edges.select(col("src"), col("dst")).rdd.mapPartitions { rows =>
      val (src, dst) = (Array.newBuilder[Long], Array.newBuilder[Long])
      rows.foreach { r => src += r.getLong(0); dst += r.getLong(1) }
      Iterator.single((src.result(), dst.result()))
    }.collect()
    val labels = g.labels.fold(Array.empty[Row])(_.select(col("id").cast("long"), col("label")).collect())
    IndexedGraph.fromArrays(parts.flatMap(_._1), parts.flatMap(_._2),
      labels.map(_.getLong(0)), labels.map(_.getString(1)))
  }

  /** Build a graph from an in-memory edge list — the main test constructor. */
  def fromEdges(spark: SparkSession, es: Seq[(Long, Long)]): DirectedGraph = {
    import spark.implicits._
    GraphOps.clean(DirectedGraph(es.toDF("src", "dst")))
  }

  /** Build a labelled graph from string-labelled edges; ids are assigned by
    * sorted label order so results are deterministic.
    */
  def fromLabeledEdges(spark: SparkSession, es: Seq[(String, String)]): DirectedGraph = {
    import spark.implicits._
    val names = es.flatMap(e => Seq(e._1, e._2)).distinct.sorted
    val idOf  = names.zipWithIndex.map { case (n, i) => n -> i.toLong }.toMap
    val edges = es.map { case (s, d) => (idOf(s), idOf(d)) }.toDF("src", "dst")
    val labels = idOf.toSeq.map { case (n, i) => (i, n) }.toDF("id", "label")
    GraphOps.clean(DirectedGraph(edges, Some(labels)))
  }
}

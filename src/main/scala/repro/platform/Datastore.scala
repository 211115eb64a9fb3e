package repro.platform

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Using
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{DirectedGraph, GraphLoader, GraphOps, IndexedGraph}

/** Filesystem-backed datastore (paper §III): stores datasets, and the
  * results and logs produced by executions.
  *
  * Layout under `root`:
  * {{{
  *   datasets/<name>.csv             every dataset's edges, one `src,dst` per line
  *   datasets/<name>.labels          its `id<TAB>label` lines, if it has labels
  *   results/<taskId>/               result CSV (id,score) per finished task
  *   logs/<taskId>.log               execution log lines per task
  * }}}
  *
  * A loaded dataset stays resident: [[loadDataset]] returns the same
  * [[DirectedGraph]] for a name until the name is stored again or the graph
  * is evicted, so the index its first query builds (the CSR rows plus one
  * label reference per vertex) serves every later query. The resident
  * graphs hold at most `residentEdgeCap` edges in total (counted as their
  * files' edge lines); a load past the cap drops the least recently loaded
  * graphs. A graph over the cap on its own is still served, and dropped by
  * the next load. A dropped graph and its index are plain driver objects: a
  * query still holding one finishes with it, and the garbage collector
  * frees it after that.
  */
final class Datastore private[platform] (val root: Path, spark: SparkSession, residentEdgeCap: Long) {
  private val datasetsDir = Files.createDirectories(root.resolve("datasets"))
  private val resultsDir  = Files.createDirectories(root.resolve("results"))
  private val logsDir     = Files.createDirectories(root.resolve("logs"))

  def this(root: Path, spark: SparkSession) = this(root, spark, Datastore.MaxResidentEdges)

  /** Resident graphs with their edge counts, least recently loaded first
    * (access order); guarded by `this`, which also orders dataset writes
    * against loads.
    */
  private val resident = new java.util.LinkedHashMap[String, (DirectedGraph, Long)](16, 0.75f, true)
  private var residentEdges = 0L

  /** Register ("upload") a dataset file: the loader of its extension (the
    * demo's supported upload formats; any other extension is rejected)
    * parses it into an index on the driver, and the index is stored as
    * [[putDataset]] stores a graph's, with no Spark job. A Pajek or ASD
    * file declares its vertices' labels, so it gets a labels file; an
    * edgelist CSV does not. A file that does not parse is rejected naming
    * it, and whatever was stored under `name` stays as it was.
    */
  def uploadDataset(name: String, sourceFile: Path): Unit = {
    checkName(name)
    val ext = extensionOf(sourceFile.getFileName.toString)
    writeDataset(name, loaderFor(ext)(sourceFile.toString), labelled = ext != "csv")
  }

  /** Register a graph: its edges go to `<name>.csv` and its labels (if it
    * has a labels frame) to `<name>.labels`, both read from `g`'s index in
    * id order, so the stored bytes depend only on the graph. Both files'
    * lines are made before anything is written; labels stored under `name`
    * before are deleted when `g` has none. The graph resident under `name`,
    * if any, is dropped; the next load reads the new files.
    */
  def putDataset(name: String, g: DirectedGraph): Unit = {
    checkName(name)
    writeDataset(name, g.index, labelled = g.labels.isDefined)
  }

  /** Stores `ix` under `name` as [[putDataset]] stores a graph's index,
    * with a labels file when `labelled`.
    */
  private def writeDataset(name: String, ix: IndexedGraph, labelled: Boolean): Unit = {
    val rows = ix.ids.indices.flatMap(v =>
      (ix.out.offsets(v) until ix.out.offsets(v + 1)).map(j => s"${ix.ids(v)},${ix.ids(ix.out.nbrs(j))}"))
    val lab = Option.when(labelled)(
      ix.ids.indices.collect { case v if ix.labels(v) != null => s"${ix.ids(v)}\t${ix.labels(v)}" })
    synchronized {
      Files.write(datasetsDir.resolve(s"$name.csv"), rows.asJava)
      val labelFile = datasetsDir.resolve(s"$name.labels")
      lab match {
        case Some(l) => Files.write(labelFile, l.asJava)
        case None    => Files.deleteIfExists(labelFile)
      }
      Option(resident.remove(name)).foreach { case (_, m) => residentEdges -= m }
    }
  }

  /** Names of all registered datasets. */
  def datasetNames: Set[String] =
    Using.resource(Files.list(datasetsDir))(_.iterator().asScala
      .map(_.getFileName.toString)
      .collect { case f if f.endsWith(".csv") => f.stripSuffix(".csv") }
      .toSet)

  /** Load a dataset by its exact name: `<name>.csv` with the labels in
    * `<name>.labels`, if there are any. Concurrent and later loads of the
    * name share one resident graph (see the class doc).
    */
  def loadDataset(name: String): DirectedGraph = {
    checkName(name)
    synchronized {
      Option(resident.get(name)) match {
        case Some((g, _)) => g
        case None =>
          val (g, m) = readDataset(name)
          resident.put(name, (g, m))
          residentEdges += m
          val lru = resident.values.iterator
          while (residentEdges > residentEdgeCap && resident.size > 1) {
            residentEdges -= lru.next()._2
            lru.remove()
          }
          g
      }
    }
  }

  /** `name`'s stored graph and the number of edge lines in its file. */
  private def readDataset(name: String): (DirectedGraph, Long) = {
    import spark.implicits._
    val file = datasetsDir.resolve(s"$name.csv")
    require(Files.exists(file), s"dataset '$name' not found")
    val edges = GraphLoader.edgeList(file.toString)
    val labelFile = datasetsDir.resolve(s"$name.labels")
    // A label is everything after the line's first tab, verbatim.
    val labels = Option.when(Files.exists(labelFile)) {
      Files.readAllLines(labelFile).asScala.toSeq.zipWithIndex.map { case (line, i) =>
        line.split("\t", 2) match {
          case Array(id, label) if id.toLongOption.isDefined => (id.toLong, label)
          case _ => throw new IllegalArgumentException(
            s"labels $labelFile has a line that is not 'id<TAB>label' at line ${i + 1}: '$line'")
        }
      }.toDF("id", "label")
    }
    (GraphOps.clean(DirectedGraph(edges.toDF("src", "dst"), labels)), edges.size.toLong)
  }

  /** Persist a finished task's `(id, score)` result; returns the number
    * of rows written.
    */
  def writeResult(taskId: String, result: DataFrame): Long = {
    val dir = resultsDir.resolve(taskId)
    Files.createDirectories(dir)
    val rows = result.select(col("id"), col("score")).collect()
      .map(r => s"${r.getLong(0)},${r.getDouble(1)}")
    Files.write(dir.resolve("scores.csv"), rows.toSeq.asJava)
    rows.length
  }

  /** Read a task result back as a DataFrame; None if never written. */
  def readResult(taskId: String): Option[DataFrame] = {
    val f = resultsDir.resolve(taskId).resolve("scores.csv")
    if (!Files.exists(f)) None
    else {
      import spark.implicits._
      val rows = Files.readAllLines(f).asScala.toSeq
        .map(_.split(",")).map(a => (a(0).toLong, a(1).toDouble))
      Some(rows.toDF("id", "score"))
    }
  }

  /** Append a log line for a task (the Status component reads these). */
  def appendLog(taskId: String, line: String): Unit = {
    val f = logsDir.resolve(s"$taskId.log")
    Files.write(f, java.util.List.of(line),
      java.nio.file.StandardOpenOption.CREATE, java.nio.file.StandardOpenOption.APPEND)
  }

  /** All log lines recorded for a task. */
  def readLog(taskId: String): Seq[String] = {
    val f = logsDir.resolve(s"$taskId.log")
    if (Files.exists(f)) Files.readAllLines(f).asScala.toSeq else Seq.empty
  }

  private def loaderFor(ext: String): String => IndexedGraph = ext match {
    case "csv" => GraphLoader.edgeListCsv
    case "net" => GraphLoader.pajek
    case "asd" => GraphLoader.asd
    case other => throw new IllegalArgumentException(
      s"unsupported dataset format .$other; supported: .csv, .net, .asd")
  }

  private def checkName(name: String): Unit =
    require(!name.contains('/') && !name.contains('\\'),
      s"dataset '$name' must not contain a path separator")

  private def extensionOf(name: String): String = {
    val i = name.lastIndexOf('.')
    require(i >= 0, s"dataset file '$name' has no extension")
    name.substring(i + 1)
  }
}

object Datastore {
  /** The most edges the resident graphs of one datastore hold in total. A
    * resident edge costs its row in the loaded in-memory relation plus one
    * int per direction in the index's CSR, on the driver; a resident graph
    * also holds one label reference per vertex in its index.
    */
  val MaxResidentEdges: Long = 10_000_000L

  /** Create a datastore under a fresh temp directory (tests, demos). */
  def temp(spark: SparkSession): Datastore =
    new Datastore(Files.createTempDirectory("repro-datastore"), spark)

  def at(path: String, spark: SparkSession): Datastore =
    new Datastore(Files.createDirectories(Paths.get(path)), spark)
}

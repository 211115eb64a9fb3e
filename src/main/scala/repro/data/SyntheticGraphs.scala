package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.graph.{DirectedGraph, GraphOps}

/** Scale-parameterised synthetic directed graphs standing in for the
  * demo's dataset families (DESIGN.md, substitutions). All generators are
  * deterministic in `(sf, seed)` and funnel through [[GraphOps.clean]].
  *
  * Structure shared by all three families:
  *  - a zipf-skewed "popularity" edge pool (heavy-tailed in-degree; the
  *    "United States"/"Harry Potter" effect),
  *  - block communities: vertices are grouped into blocks of `blockSize`
  *    and linked to a few successors within their block, with a fraction
  *    of those links reciprocated (the cycle-rich neighbourhoods
  *    CycleRank feeds on).
  */
object SyntheticGraphs {

  /** Number of vertices at a given scale factor (sf=0.1 → 20 000). */
  def nVertices(sf: Double): Long = math.max(500L, (200000 * sf).toLong)

  private def blockCommunityEdges(spark: SparkSession, n: Long, blockSize: Int,
                                  fanout: Int, reciprocity: Double, seed: Long): DataFrame = {
    // vertex i links to i+1..i+fanout inside its block; a reciprocated
    // copy of each link is added with probability `reciprocity`.
    val base = spark.range(n).select(col("id").as("src"))
    val offsets = (1 to fanout).map(lit(_))
    val fwd = base.select(col("src"), explode(array(offsets: _*)).as("off"))
      .withColumn("dst", col("src") + col("off"))
      // block id must use integer division — `/` on long columns is double
      .where(floor(col("dst") / blockSize) === floor(col("src") / blockSize) &&
             col("dst") < n)
      .select(col("src"), col("dst"))
    val back = fwd.where(rand(seed) < reciprocity)
      .select(col("dst").as("src"), col("src").as("dst"))
    fwd.union(back)
  }

  /** `rows` zipf-skewed keys `k` in `[1, nKeys]` (rank weights `1/k^alpha`). */
  private[data] def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
                             alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
    spark.range(rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k")
  }

  private def popularityEdges(spark: SparkSession, n: Long, rows: Long,
                              alpha: Double, seed: Long): DataFrame = {
    val zipfDst = zipfKeys(spark, rows, n, alpha, seed)
      .select((col("k") - 1).as("dst"))
    // pair each popular destination with a uniform source
    zipfDst.withColumn("src", (rand(seed + 17) * n).cast("long"))
      .select(col("src"), col("dst"))
  }

  /** Wikilink-style graph: strong popularity skew, moderate reciprocity. */
  def wikilinkLike(spark: SparkSession, sf: Double, seed: Long = 11): DirectedGraph = {
    val n = nVertices(sf)
    val edges = popularityEdges(spark, n, rows = n * 6, alpha = 1.1, seed)
      .union(blockCommunityEdges(spark, n, blockSize = 25, fanout = 3,
                                 reciprocity = 0.5, seed = seed + 1))
    GraphOps.clean(DirectedGraph(edges))
  }

  /** Co-purchase-style graph: weaker skew, high reciprocity ("customers
    * who bought X also bought Y" is often symmetric).
    */
  def copurchaseLike(spark: SparkSession, sf: Double, seed: Long = 13): DirectedGraph = {
    val n = nVertices(sf)
    val edges = popularityEdges(spark, n, rows = n * 3, alpha = 0.9, seed)
      .union(blockCommunityEdges(spark, n, blockSize = 15, fanout = 4,
                                 reciprocity = 0.8, seed = seed + 1))
    GraphOps.clean(DirectedGraph(edges))
  }

  /** Twitter-interaction-style graph: extreme skew (celebrity mentions),
    * low reciprocity, small reply-ring communities.
    */
  def twitterLike(spark: SparkSession, sf: Double, seed: Long = 17): DirectedGraph = {
    val n = nVertices(sf)
    val edges = popularityEdges(spark, n, rows = n * 8, alpha = 1.3, seed)
      .union(blockCommunityEdges(spark, n, blockSize = 8, fanout = 2,
                                 reciprocity = 0.3, seed = seed + 1))
    GraphOps.clean(DirectedGraph(edges))
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.DirectedGraph

/** 2DRank (Zhirov et al., paper §II): a ranking — not a score — that
  * combines the PageRank rank position K and the CheiRank rank position
  * K* of every node.
  *
  * Construction (square sweep over the (K, K*) plane, DESIGN.md): nodes
  * are emitted in order of increasing `L = max(K, K*)`; within one L,
  * first the vertical edge of the square (K = L) ordered by K*, then the
  * horizontal edge (K* = L, K < L) ordered by K. The result frame carries
  * `rank` (the 2DRank position) and, because downstream plumbing expects a
  * score column, a descending pseudo-score `score = 1/rank`.
  */
object TwoDRank {

  /** Combine precomputed PR and CheiRank score frames into the 2DRank
    * ordering. Exposed separately from [[run]] so tests can feed synthetic
    * score vectors.
    */
  def combine(pr: DataFrame, chei: DataFrame): DataFrame = {
    val kPr   = Ranking.withRank(pr).select(col("id"), col("rank").as("k"))
    val kChei = Ranking.withRank(chei).select(col("id"), col("rank").as("kstar"))
    val joined = kPr.join(kChei, Seq("id"))
      .withColumn("l", greatest(col("k"), col("kstar")))
      // Vertical edge (K = L) precedes horizontal (K* = L, K < L):
      .withColumn("side", when(col("k") === col("l"), 0).otherwise(1))
      .withColumn("inner", when(col("side") === 0, col("kstar")).otherwise(col("k")))
    val ordered = joined
      .withColumn("rank",
        row_number().over(org.apache.spark.sql.expressions.Window
          .orderBy(col("l").asc, col("side").asc, col("inner").asc, col("id").asc)))
    ordered.select(col("id"), (lit(1.0) / col("rank")).as("score"), col("rank"),
                   col("k"), col("kstar"))
  }

  /** 2DRank from PageRank and CheiRank under the same `cfg`; personalized
    * (Personalized PageRank and Personalized CheiRank) when `cfg.teleport`
    * is set.
    */
  def run(g: DirectedGraph, cfg: PageRank.Config = PageRank.Config()): DataFrame =
    combine(PageRank.run(g, cfg), CheiRank.run(g, cfg))
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Rank positions, as 2DRank combines them. Ties are always broken by ascending node id so results are
  * deterministic (DESIGN.md, "Documented algorithmic choices").
  */
object Ranking {

  /** Add a 1-based `rank` column to a `(id, score, ...)` frame: position
    * when sorting by score descending, ties by id ascending.
    */
  def withRank(scores: DataFrame): DataFrame = {
    val w = Window.orderBy(col("score").desc, col("id").asc)
    scores.withColumn("rank", row_number().over(w))
  }
}

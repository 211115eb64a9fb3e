package repro

import org.apache.spark.sql.functions._
import repro.core.GraphTestKit
import repro.data.SyntheticGraphs

/** Plumbing checks for the DuckDB oracle itself, so failures in graph
  * suites can be attributed.
  */
class OracleSpec extends SparkSpec with GraphTestKit {

  test("oracle validates an in-degree aggregation over a graph's edges") {
    val edges = SyntheticGraphs.wikilinkLike(spark, 0.005).edges
    val got = edges.groupBy(col("dst")).agg(count(lit(1)).as("indeg"))
      .select(col("dst"), col("indeg"))
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(dst AS BIGINT) AS dst, COUNT(*) AS indeg FROM edges GROUP BY 1",
      "edges" -> edges)
  }

  test("oracle catches a wrong result") {
    import spark.implicits._
    val df = Seq((1L, 2L)).toDF("a", "b")
    val wrong = Seq((1L, 99L)).toDF("a", "b")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT CAST(a AS BIGINT) a, CAST(b AS BIGINT) b FROM t",
        "t" -> df)
    }
  }

  test("oracle catches a column-name mismatch") {
    import spark.implicits._
    val df = Seq((1L, 2L)).toDF("a", "b")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT a AS x, b AS y FROM t", "t" -> df)
    }
  }
}

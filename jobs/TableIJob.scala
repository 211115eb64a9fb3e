package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.TableHarness
import repro.experiments.Tables

/** spark-submit entrypoint reproducing the paper's Table I (top-5 by PR,
  * CR and PPR on the English-Wikipedia stand-in).
  *
  * `spark-submit --class repro.jobs.TableIJob repro.jar`
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("table-i")
    try {
      println(TableHarness.render(
        "TABLE I: top-5 by PR(a=0.85), CR(K=3, sigma=e^-n), PPR(a=0.3) — en-wiki stand-in",
        Tables.tableI(spark)))
    } finally spark.stop()
  }
}

/** Shared local-mode session factory for the job entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-$name")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The Spark work a block of code caused: the jobs started and the bytes
  * their tasks wrote to shuffle files.
  */
final case class SparkWork(jobs: Int, shuffleWriteBytes: Long)

object SparkWork {

  /** Runs `f` and returns the work every thread caused meanwhile, counted
    * by a listener. Listener events arrive asynchronously, so after `f` a
    * sentinel job runs and the counts are read once its start has been
    * reported: every earlier event has been delivered by then.
    */
  def of(spark: SparkSession)(f: => Any): SparkWork = {
    val sc = spark.sparkContext
    val sentinel = "spark-work-sentinel"
    val jobs = new AtomicInteger
    val bytes = new AtomicLong
    val sentinelSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == sentinel))
          sentinelSeen.countDown()
        else jobs.incrementAndGet()

      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => bytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
    sc.addSparkListener(listener)
    try {
      f
      sc.setJobGroup(sentinel, sentinel)
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      assert(sentinelSeen.await(30, TimeUnit.SECONDS), "the sentinel job was never reported")
      SparkWork(jobs.get, bytes.get)
    } finally sc.removeSparkListener(listener)
  }
}

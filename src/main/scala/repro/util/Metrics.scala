package repro.util

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** Capture Spark task metrics around an action — used to report shuffle sizes
  * (the paper's `shuffleWriteBytes` measure) and wall times for the benches.
  */
object Metrics {

  final case class RunMetrics(wallMillis: Long, shuffleWriteBytes: Long, result: Long)

  private val groups = new AtomicLong

  /** Run `action` (which must trigger the job and return a result count);
    * report wall time and total shuffle write bytes of the stages it ran.
    *
    * The clock stops when `action` returns. The action's jobs run under their
    * own job group, and since listener events arrive asynchronously the shuffle
    * bytes are read only after `SparkListenerJobEnd` for every job of the group.
    */
  def measure(spark: SparkSession)(action: => Long): RunMetrics = {
    val sc = spark.sparkContext
    val group = s"repro-measure-${groups.incrementAndGet()}"
    val jobs = mutable.Set.empty[Int]
    val stages = mutable.Set.empty[Int]
    var jobsEnded = 0
    var shuffleBytes = 0L
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.synchronized {
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
          jobs += e.jobId
          stages ++= e.stageIds
        }
      }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = jobs.synchronized {
        if (stages.contains(e.stageInfo.stageId))
          shuffleBytes += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = jobs.synchronized {
        if (jobs.contains(e.jobId)) { jobsEnded += 1; jobs.notifyAll() }
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, group)
      val t0 = System.nanoTime()
      val res = try action finally sc.clearJobGroup()
      val wall = (System.nanoTime() - t0) / 1000000L
      val deadline = System.currentTimeMillis() + 60000L
      jobs.synchronized {
        while (jobs.isEmpty || jobsEnded < jobs.size) {
          val left = deadline - System.currentTimeMillis()
          if (left <= 0) throw new IllegalStateException(s"no SparkListenerJobEnd for job group $group")
          jobs.wait(left)
        }
        RunMetrics(wall, shuffleBytes, res)
      }
    } finally sc.removeSparkListener(listener)
  }
}

package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** Spark stage and task metrics of the jobs run under one job group. */
final class GroupMetrics {
  var jobsStarted = 0
  var jobsEnded = 0
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  var fetchWaitMs = 0L
  var gcMs = 0L
  /** Stage wall time (submission to completion) of stages that read no shuffle. */
  var mapStageMs = 0L
  /** Stage wall time of the stages that read a shuffle. */
  var reduceStageMs = 0L
  /** Executor run time of each task of the job's final (result) stage. */
  val resultTaskMs = mutable.ArrayBuffer.empty[Long]
  private[perfbench] val resultStages = mutable.Set.empty[Int]

  /** Largest over median task run time of the result stage (≥ 1 ms each). */
  def reduceTaskSkew: Double =
    if (resultTaskMs.isEmpty) 1.0
    else {
      val s = resultTaskMs.map(math.max(1L, _)).sorted
      s.last.toDouble / s(s.length / 2)
    }
}

/** Collects per-job-group Spark metrics.
  *
  * A job is tagged with `setJobGroup` before its action runs; [[await]] then
  * blocks until the listener bus has delivered `SparkListenerJobEnd` for
  * every job of that group, so the metrics are complete when read. Events
  * of untagged jobs (data generation, warm-up) are ignored.
  */
final class JobListener(sc: SparkContext) extends SparkListener {
  private val groups = mutable.HashMap.empty[String, GroupMetrics]
  private val jobGroup = mutable.HashMap.empty[Int, GroupMetrics]
  private val stageGroup = mutable.HashMap.empty[Int, GroupMetrics]

  sc.addSparkListener(this)

  /** Run `action` with its jobs tagged as job group `group`. */
  def run[A](group: String)(action: => A): A = {
    synchronized { groups(group) = new GroupMetrics }
    sc.setJobGroup(group, group)
    try action
    finally sc.clearJobGroup()
  }

  /** Wait until every job started under `group` has ended on the listener bus. */
  def await(group: String, timeoutMs: Long = 60000L): GroupMetrics = synchronized {
    val m = groups(group)
    val deadline = System.currentTimeMillis() + timeoutMs
    while (m.jobsStarted == 0 || m.jobsEnded < m.jobsStarted) {
      val left = deadline - System.currentTimeMillis()
      if (left <= 0) throw new IllegalStateException(s"no SparkListenerJobEnd for job group $group")
      wait(left)
    }
    groups.remove(group)
    m
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.flatMap(groups.get).foreach { m =>
      m.jobsStarted += 1
      jobGroup(e.jobId) = m
      e.stageInfos.foreach(s => stageGroup(s.stageId) = m)
      // The job's final stage has the largest id of its stages.
      if (e.stageInfos.nonEmpty) m.resultStages += e.stageInfos.map(_.stageId).max
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (m <- stageGroup.get(e.stageId); tm <- Option(e.taskMetrics)) {
      m.shuffleBytes += tm.shuffleWriteMetrics.bytesWritten
      m.shuffleRecords += tm.shuffleWriteMetrics.recordsWritten
      m.fetchWaitMs += tm.shuffleReadMetrics.fetchWaitTime
      m.gcMs += tm.jvmGCTime
      if (m.resultStages.contains(e.stageId)) m.resultTaskMs += tm.executorRunTime
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for (m <- stageGroup.get(info.stageId); start <- info.submissionTime; end <- info.completionTime) {
      if (info.parentIds.isEmpty) m.mapStageMs += end - start
      else m.reduceStageMs += end - start
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobGroup.remove(e.jobId).foreach { m =>
      m.jobsEnded += 1
      notifyAll()
    }
  }
}

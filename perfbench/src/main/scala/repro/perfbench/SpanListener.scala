package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.storage.RDDBlockId

import scala.collection.mutable

/** Records Spark job, stage and task spans plus the bytes held by cached RDD
  * blocks, from listener events only. Every job carries the span label that
  * was set as the `SpanListener.SpanKey` local property when it was submitted,
  * which is how jobs are attributed to the decomposition that ran them.
  */
final class SpanListener extends SparkListener {
  import SpanListener._

  private val jobs   = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stages = mutable.HashMap.empty[Int, StageRec]
  private val tasks  = mutable.ArrayBuffer.empty[TaskRec]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  private val blockBytes = mutable.HashMap.empty[RDDBlockId, Long]
  private var cachedNow  = 0L
  private var cachedPeak = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val label = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("")
    // The result stage has the highest id; its details hold the job's long call site.
    val result = e.stageInfos.maxBy(_.stageId)
    jobs(e.jobId) = JobRec(e.jobId, label, e.time, -1L, e.stageIds, result.name, result.details)
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(j => jobs(e.jobId) = j.copy(end = e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    stages(si.stageId) = StageRec(
      si.stageId,
      stageJob.getOrElse(si.stageId, -1),
      si.numTasks,
      si.submissionTime.getOrElse(-1L),
      si.completionTime.getOrElse(-1L),
      si.details.linesIterator.map(_.trim).find(_.startsWith("repro.")).getOrElse("")
    )
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val sw = m.shuffleWriteMetrics
      val sr = m.shuffleReadMetrics
      tasks += TaskRec(
        stageId = e.stageId,
        jobId = stageJob.getOrElse(e.stageId, -1),
        partition = e.taskInfo.partitionId,
        launch = e.taskInfo.launchTime,
        finish = e.taskInfo.finishTime,
        runMs = m.executorRunTime,
        cpuNs = m.executorCpuTime + m.executorDeserializeCpuTime,
        deserMs = m.executorDeserializeTime,
        gcMs = m.jvmGCTime,
        shuffleBytes = sw.bytesWritten,
        shuffleRecords = sw.recordsWritten,
        shuffleWriteNs = sw.writeTime,
        fetchWaitMs = sr.fetchWaitTime,
        spillBytes = m.diskBytesSpilled
      )
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    e.blockUpdatedInfo.blockId match {
      case id: RDDBlockId =>
        val info  = e.blockUpdatedInfo
        val bytes = if (info.storageLevel.isValid) info.memSize + info.diskSize else 0L
        cachedNow += bytes - blockBytes.getOrElse(id, 0L)
        if (bytes == 0L) blockBytes.remove(id) else blockBytes(id) = bytes
        cachedPeak = math.max(cachedPeak, cachedNow)
      case _ =>
    }
  }

  /** Bytes held by cached RDD blocks now; the peak restarts from here. */
  def resetCachedPeak(): Long = synchronized { cachedPeak = cachedNow; cachedNow }

  def cachedPeakBytes: Long = synchronized(cachedPeak)

  /** Everything recorded for jobs submitted under `label`, in job order. */
  def spansOf(label: String): Spans = synchronized {
    val js  = jobs.valuesIterator.filter(_.label == label).toVector
    val ids = js.iterator.map(_.id).toSet
    Spans(
      js,
      stages.valuesIterator.filter(s => ids(s.jobId)).toVector.sortBy(_.id),
      tasks.iterator.filter(t => ids(t.jobId)).toVector
    )
  }
}

object SpanListener {
  val SpanKey = "perfbench.span"

  final case class JobRec(
      id: Int,
      label: String,
      start: Long,
      end: Long,
      stageIds: Seq[Int],
      /** short call site of the job's action, e.g. "fold at SuperstepEngine.scala:145" */
      callSite: String,
      /** long call site: the stack of the thread that submitted the job */
      stack: String
  ) {
    def seconds: Double = if (end < 0) 0.0 else (end - start) / 1e3
  }

  final case class StageRec(
      id: Int,
      jobId: Int,
      numTasks: Int,
      start: Long,
      end: Long,
      /** the first `repro.` frame of the stack that created the stage's RDD, or "" */
      creator: String
  )

  final case class TaskRec(
      stageId: Int,
      jobId: Int,
      partition: Int,
      launch: Long,
      finish: Long,
      runMs: Long,
      cpuNs: Long,
      deserMs: Long,
      gcMs: Long,
      shuffleBytes: Long,
      shuffleRecords: Long,
      shuffleWriteNs: Long,
      fetchWaitMs: Long,
      spillBytes: Long
  )

  final case class Spans(jobs: Vector[JobRec], stages: Vector[StageRec], tasks: Vector[TaskRec])

  /** Run `f` with every job it submits labelled `label`. */
  def labelled[A](sc: SparkContext, label: String)(f: => A): A = {
    sc.setLocalProperty(SpanKey, label)
    try f
    finally sc.setLocalProperty(SpanKey, null)
  }

  /** Block until the listener has seen every event posted so far. */
  def drain(sc: SparkContext): Unit = org.apache.spark.PerfbenchAccess.waitForListeners(sc)
}

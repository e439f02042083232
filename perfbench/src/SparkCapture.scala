package repro.perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Listener registered from the benchmark that splits one MapReduce round 1
  * into its two Spark stages: the routing shuffle-map stage (keying every
  * point and writing it to its partition) and the result stage (reading the
  * shuffle, then GMM and proxy weighting on each partition).
  */
final class SparkCapture extends SparkListener {
  import SparkCapture._

  private val stages = ArrayBuffer.empty[StageInfo]
  private val tasks = ArrayBuffer.empty[Task]
  private var started = 0
  private var ended = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { started += 1 }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += 1; notifyAll() }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += e.stageInfo }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null)
      tasks += Task(e.stageId, e.taskType, e.taskMetrics.executorRunTime, e.taskMetrics.shuffleReadMetrics.recordsRead)
  }

  def reset(): Unit = synchronized { stages.clear(); tasks.clear(); started = 0; ended = 0 }

  /** Waits for the listener bus to deliver every job started since [[reset]],
    * then returns the route and round-1 numbers of the single shuffle job.
    */
  def round1(): Round1 = synchronized {
    val deadline = System.nanoTime() + 30L * 1000000000L
    while ((ended == 0 || ended < started) && System.nanoTime() < deadline) wait(10L)
    val mapStages = tasks.filter(_.taskType == "ShuffleMapTask").map(_.stageId).toSet
    val (maps, results) = stages.partition(s => mapStages(s.stageId))
    require(maps.size == 1 && results.size == 1,
      s"expected one shuffle-map and one result stage, saw ${maps.size} and ${results.size}")
    val (route, r1) = (maps.head, results.head)
    val r1Tasks = tasks.filter(_.stageId == r1.stageId)
    Round1(
      routeStageS = stageSeconds(route),
      round1StageS = stageSeconds(r1),
      taskSumS = r1Tasks.map(_.runMs).sum / 1e3,
      taskMaxS = r1Tasks.map(_.runMs).max / 1e3,
      shuffleWriteBytes = route.taskMetrics.shuffleWriteMetrics.bytesWritten,
      shuffleReadBytes = r1.taskMetrics.shuffleReadMetrics.totalBytesRead,
      partitionPoints = r1Tasks.map(_.recordsRead).toVector,
    )
  }
}

object SparkCapture {
  final case class Task(stageId: Int, taskType: String, runMs: Long, recordsRead: Long)
  final case class Round1(routeStageS: Double, round1StageS: Double, taskSumS: Double, taskMaxS: Double,
                          shuffleWriteBytes: Long, shuffleReadBytes: Long, partitionPoints: Vector[Long])

  private def stageSeconds(s: StageInfo): Double =
    (s.completionTime.get - s.submissionTime.get) / 1e3
}

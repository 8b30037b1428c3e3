package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionEnd,
  SparkListenerSQLExecutionStart}

import scala.collection.mutable

/** Counts the Spark work of one build (jobs, tasks, rows read, shuffle bytes,
  * executor CPU) and the wall interval of every SQL execution, classified by
  * the `PassBuilder` method at the top of its call site. Rows read are the
  * "number of output rows" of the plans' leaf scans (parquet files or cached
  * tables), because a cached table's task input metrics count column batches,
  * not rows. Call `reset` before the build and read after draining the bus.
  */
final class BuildListener extends SparkListener {
  var jobs: Long              = 0
  var tasks: Long             = 0
  var recordsRead: Long       = 0
  var shuffleWriteBytes: Long = 0
  var executorCpuNs: Long     = 0
  private val open        = mutable.Map.empty[Long, (String, Long)]
  private val scanMetrics = mutable.Set.empty[Long]
  /** Finished SQL executions: (phase, start epoch ms, end epoch ms). */
  val executions = mutable.ArrayBuffer.empty[(String, Long, Long)]

  def reset(): Unit = synchronized {
    jobs = 0; tasks = 0; recordsRead = 0; shuffleWriteBytes = 0; executorCpuNs = 0
    open.clear(); executions.clear(); scanMetrics.clear()
  }

  private def phaseOf(callSite: String): String =
    if (callSite.contains("PassBuilder$.prepare")) "prepare"
    else if (callSite.contains("PassBuilder$.optSample")) "opt_sample"
    else "full_pass"

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    for (a <- e.taskInfo.accumulables if scanMetrics.contains(a.id); u <- a.update)
      recordsRead += u.toString.toLong
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      executorCpuNs += m.executorCpuTime
    }
  }

  // A cached table's scan lists the plan that filled the cache as its child;
  // the scan itself is what reads the rows.
  private def addScans(p: SparkPlanInfo): Unit =
    if (p.nodeName == "InMemoryTableScan" || (p.children.isEmpty && p.nodeName.contains("Scan")))
      p.metrics.filter(_.name == "number of output rows").foreach(scanMetrics += _.accumulatorId)
    else p.children.foreach(addScans)

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        open(s.executionId) = (phaseOf(s.details), s.time)
        addScans(s.sparkPlanInfo)
      case u: SparkListenerSQLAdaptiveExecutionUpdate => addScans(u.sparkPlanInfo)
      case x: SparkListenerSQLExecutionEnd =>
        open.remove(x.executionId).foreach { case (phase, t0) => executions += ((phase, t0, x.time)) }
      case _ => ()
    }
  }
}

package repro

import scala.collection.mutable

import org.apache.spark.{SparkContext, SparkTestAccess}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.{SparkListenerSQLAdaptiveExecutionUpdate, SparkListenerSQLExecutionStart}

/** The Spark work posted while a block of driver code ran: the call-site
  * details of its SQL executions in start order, its jobs, the shuffle bytes
  * its tasks wrote, and the rows its plans' leaf scans read ("number of output
  * rows" of file or cached-table scans). A cached table's scan lists the plan
  * that filled the cache as its child; the scan itself is what reads the rows.
  */
final class SparkWork private extends SparkListener {
  val executions          = mutable.ArrayBuffer.empty[String]
  var jobs                = 0
  var shuffleBytes        = 0L
  var rowsRead            = 0L
  private val scanMetrics = mutable.Set.empty[Long]

  private def addScans(p: SparkPlanInfo): Unit =
    if (p.nodeName == "InMemoryTableScan" || (p.children.isEmpty && p.nodeName.contains("Scan")))
      p.metrics.filter(_.name == "number of output rows").foreach(scanMetrics += _.accumulatorId)
    else p.children.foreach(addScans)

  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart           => executions += s.details; addScans(s.sparkPlanInfo)
      case u: SparkListenerSQLAdaptiveExecutionUpdate => addScans(u.sparkPlanInfo)
      case _                                           => ()
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (a <- e.taskInfo.accumulables if scanMetrics.contains(a.id); u <- a.update)
      rowsRead += u.toString.toLong
    if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }
}

object SparkWork {
  /** Runs `body` and returns the work it posted, once every event is delivered. */
  def of(sc: SparkContext)(body: => Unit): SparkWork = {
    SparkTestAccess.drainListenerBus(sc)
    val w = new SparkWork
    sc.addSparkListener(w)
    try { body; SparkTestAccess.drainListenerBus(sc) }
    finally sc.removeSparkListener(w)
    w
  }
}

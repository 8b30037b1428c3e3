package repro.core

import scala.reflect.ClassTag

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Encoders}

/** The build scan as a Dataset action: `mapPartitions` decodes every row into
  * a `Row`, and each task's sink comes back through
  * `Encoders.javaSerialization`. It reads the same rows as
  * `PassBuilder.InternalRowScan` through Spark's public row API, so it is the
  * tests' oracle for that scan: every build must come out bit-equal.
  */
object RowScan extends PassBuilder.Scan {
  def apply[S <: RowSink[S]: ClassTag](projected: DataFrame, d: Int)(sink: Int => S): S = {
    val parts = projected.mapPartitions { rows =>
      val s = sink(TaskContext.getPartitionId())
      val x = new Array[Double](d)
      rows.foreach { r =>
        var j = 0
        while (j <= d && !r.isNullAt(j)) j += 1
        if (j <= d) s.drop()
        else {
          j = 0
          while (j < d) { x(j) = r.getDouble(j); j += 1 }
          s.offer(x, r.getDouble(d))
        }
      }
      Iterator.single(s)
    }(Encoders.javaSerialization[S]).collect()
    PassBuilder.mergeInOrder(parts, sink)
  }
}

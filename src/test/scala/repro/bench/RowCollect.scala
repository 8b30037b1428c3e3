package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** The exact-answer set-up through Spark's public row API and Scala's boxed
  * sorts: `df.select(…).collect()` decodes every row into a `Row`, and the
  * 1-D order is `sortBy` under the default `Ordering[Double]`. It is the
  * tests' oracle for `GroundTruth.collect` and its sorted column and prefix
  * sums: each must come out bit-equal.
  */
object RowCollect {
  /** The (predicate, aggregate) columns as column-major arrays. */
  def apply(df: DataFrame, predCols: Seq[String], aggCol: String): GroundTruth = {
    val cols = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val rows = df.select(cols: _*).collect()
    val d    = predCols.length
    val coords = Array.tabulate(d)(dim => rows.map(_.getDouble(dim)))
    new GroundTruth(coords, rows.map(_.getDouble(d)))
  }

  /** The 1-D column sorted, and the prefix sums of the values in that order. */
  def sortedPrefix(c: Array[Double], values: Array[Double]): (Array[Double], Array[Double]) = {
    val idx = values.indices.toArray.sortBy(c)
    val p1  = new Array[Double](values.length + 1)
    for (i <- idx.indices) p1(i + 1) = p1(i) + values(idx(i))
    (idx.map(c), p1)
  }

  /** `Workloads.ranges1D` as it sorted the column itself. */
  def ranges1D(gt: GroundTruth, nQueries: Int, minFrac: Double, seed: Long): Array[repro.core.Rect] = {
    val rnd    = new scala.util.Random(seed)
    val cs     = gt.coords(0).sorted
    val n      = cs.length
    val minLen = math.max(1, (minFrac * n).toInt)
    Array.fill(nQueries) {
      val i = rnd.nextInt(math.max(1, n - minLen))
      val j = math.min(n - 1, i + minLen + rnd.nextInt(math.max(1, n - minLen - i)))
      repro.core.Rect.range(cs(i), Math.nextUp(cs(j)))
    }
  }
}

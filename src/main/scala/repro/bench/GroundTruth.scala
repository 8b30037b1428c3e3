package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.core.{Agg, Rect}

/** Exact query answers for benchmark scoring, computed on the driver over the
  * collected (predicate, aggregate) columns. The 1-D path sorts once and
  * answers each range in O(log n) with prefix sums; the N-D path scans
  * column-major arrays. Correctness of both paths is oracle-checked against
  * DuckDB in `GroundTruthSpec`.
  */
final class GroundTruth(
    val coords: Array[Array[Double]], // column-major: coords(dim)(row)
    val values: Array[Double],
) {
  val dims: Int = coords.length
  val n: Int    = values.length

  // 1-D fast path: row order sorted by the single predicate column
  private val (sortedC, pre1): (Array[Double], Array[Double]) =
    if (dims != 1) (null, null)
    else {
      val idx = values.indices.toArray.sortBy(coords(0))
      val cs  = idx.map(coords(0))
      val p1  = new Array[Double](n + 1)
      var i   = 0
      while (i < n) { p1(i + 1) = p1(i) + values(idx(i)); i += 1 }
      (cs, p1)
    }

  private def lowerBound(c: Double): Int = {
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sortedC(mid) < c) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Exact (sum, count, min, max) of the aggregate over the predicate. */
  def stats(q: Rect): (Double, Long, Double, Double) = {
    var s = 0.0; var c = 0L
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = 0
    while (i < n) {
      var in = true
      var d  = 0
      while (in && d < dims) {
        val x = coords(d)(i)
        if (!(x >= q.lo(d) && x < q.hi(d))) in = false // NaN matches no range
        d += 1
      }
      if (in) {
        val a = values(i)
        s += a; c += 1
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
      i += 1
    }
    (s, c, mn, mx)
  }

  // several approaches are scored on the same workload; N-D truths are full
  // scans, so memoize per (query, aggregate)
  private val cache = scala.collection.mutable.HashMap.empty[(Rect, Agg), Double]

  def answer(q: Rect, agg: Agg): Double =
    cache.getOrElseUpdate((q, agg), compute(q, agg))

  private def compute(q: Rect, agg: Agg): Double = {
    if (dims == 1 && (agg == Agg.Sum || agg == Agg.Count || agg == Agg.Avg)) {
      val i = lowerBound(q.lo(0)); val j = lowerBound(q.hi(0))
      agg match {
        case Agg.Sum   => pre1(j) - pre1(i)
        case Agg.Count => (j - i).toDouble
        case _         => if (j == i) Double.NaN else (pre1(j) - pre1(i)) / (j - i)
      }
    } else {
      val (s, c, mn, mx) = stats(q)
      agg match {
        case Agg.Sum   => s
        case Agg.Count => c.toDouble
        case Agg.Avg   => if (c == 0) Double.NaN else s / c
        case Agg.Min   => if (c == 0) Double.NaN else mn
        case Agg.Max   => if (c == 0) Double.NaN else mx
      }
    }
  }

  /** Count of tuples matching the predicate (workload-generation helper). */
  def count(q: Rect): Long = answer(q, Agg.Count).toLong
}

object GroundTruth {
  /** Collects the relevant columns to the driver as column-major arrays. */
  def collect(df: DataFrame, predCols: Seq[String], aggCol: String): GroundTruth = {
    val cols = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val rows = df.select(cols: _*).collect()
    val d    = predCols.length
    val coords = Array.tabulate(d)(dim => rows.map(_.getDouble(dim)))
    new GroundTruth(coords, rows.map(_.getDouble(d)))
  }
}

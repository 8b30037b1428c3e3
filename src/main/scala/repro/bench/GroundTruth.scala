package repro.bench

import scala.collection.mutable.ArrayBuilder

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.core.{Agg, IndexSort, PassBuilder, Rect}

/** Exact query answers for benchmark scoring, computed on the driver over the
  * collected (predicate, aggregate) columns. The 1-D path sorts once
  * (`IndexSort`, NaN last) and answers each range in O(log n) with prefix
  * sums; the N-D path scans column-major arrays. Correctness of both paths is
  * oracle-checked against DuckDB in `GroundTruthSpec`.
  */
final class GroundTruth(
    val coords: Array[Array[Double]], // column-major: coords(dim)(row)
    val values: Array[Double],
) {
  val dims: Int = coords.length
  val n: Int    = values.length

  // 1-D fast path: the predicate column sorted (`sortedC`, read by
  // `Workloads.ranges1D` too) and the prefix sums of the values in that order
  private[bench] val (sortedC, pre1): (Array[Double], Array[Double]) =
    if (dims != 1) (null, null)
    else {
      val c0  = coords(0)
      val idx = IndexSort.sortBy(Array.range(0, n))(c0(_))
      val cs  = new Array[Double](n)
      val p1  = new Array[Double](n + 1)
      var i   = 0
      while (i < n) { cs(i) = c0(idx(i)); p1(i + 1) = p1(i) + values(idx(i)); i += 1 }
      (cs, p1)
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
      // an inverted or NaN-bounded range matches no row, as in `stats`
      val i = IndexSort.lowerBound(sortedC, q.lo(0))
      val j = if (q.lo(0) <= q.hi(0)) IndexSort.lowerBound(sortedC, q.hi(0)) else i
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
  /** Collects the predicate columns and the aggregate column, cast to double,
    * to the driver as column-major arrays, in the frame's row order. Each
    * Spark task reads its Catalyst rows into one primitive array per column
    * (`PassBuilder.collectPartitions`). A row with a NaN is kept; a null field
    * fails with an `IllegalArgumentException` that names its column.
    */
  def collect(df: DataFrame, predCols: Seq[String], aggCol: String): GroundTruth = {
    val names = predCols :+ aggCol
    val w     = names.length
    val parts = PassBuilder.collectPartitions(df.select(names.map(c => col(c).cast(DoubleType).as(c)): _*)) {
      (_, rows) =>
        val cols   = Array.fill(w)(new ArrayBuilder.ofDouble)
        var nullAt = -1 // the first null field's column, if any
        while (nullAt < 0 && rows.hasNext) {
          val r = rows.next()
          var j = 0
          while (j < w && !r.isNullAt(j)) j += 1
          if (j < w) nullAt = j
          else {
            j = 0
            while (j < w) { cols(j) += r.getDouble(j); j += 1 }
          }
        }
        (cols.map(_.result()), nullAt)
    }
    parts.find(_._2 >= 0).foreach { case (_, j) =>
      throw new IllegalArgumentException(s"column ${names(j)} holds a null; GroundTruth needs a value in every row")
    }
    require(parts.map(_._1(0).length.toLong).sum <= Int.MaxValue, "more rows than one array holds")
    val columns = Array.tabulate(w)(j => Array.concat(parts.map(_._1(j)).toIndexedSeq: _*))
    new GroundTruth(columns.take(predCols.length), columns(predCols.length))
  }
}

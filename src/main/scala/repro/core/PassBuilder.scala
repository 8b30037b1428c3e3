package repro.core

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** Builds a [[PassSynopsis]] from a DataFrame with two Spark scans, per the
  * construction pipeline of Sec 3.2/4:
  *
  *  1. `prepare`: one scan for N, the per-dimension extrema and a uniform
  *     *optimization sample* (a bottom-k priority reservoir per task, merged
  *     on the Spark driver), over which the partitioning optimizer (ADP /
  *     equal-depth / kd) runs there;
  *  2. one routed scan: each task sends its rows down the partition-tree
  *     skeleton (`FlatTree.leafOf`) and keeps per-leaf exact
  *     COUNT/SUM/MIN/MAX plus a per-leaf priority reservoir (`LeafStats`);
  *     the Spark driver merges the tasks' results and rolls the leaf
  *     aggregates up the tree (`FlatTree.withLeafStats`).
  *
  * Each scan is one SQL execution that reads the projection's Catalyst
  * `InternalRow`s (`queryExecution.toRdd`) with no `Row` decoding and no
  * shuffle ([[PassBuilder.InternalRowScan]]). Rows with a null or NaN
  * predicate coordinate or aggregate value are left out of both and counted.
  */
object PassBuilder {

  /** Which partitioning optimizer shapes the leaves. */
  sealed trait Partitioner extends Product with Serializable
  /** The paper's ADP (sampling + discretization DP) in one dimension. */
  final case class Adp1D(k: Int, agg: Agg = Agg.Sum, deltaM: Int = 0) extends Partitioner { requireLeaves(k) }
  /** Equal-depth strata (the EQ baseline; optimal for COUNT). */
  final case class EqualDepth1D(k: Int) extends Partitioner { requireLeaves(k) }
  /** Interior cuts chosen from the optimization sample (e.g. AQP++ hill climbing). */
  final case class Cuts1D(choose: SortedSample1D => Array[Double]) extends Partitioner
  /** KD-PASS greedy max-variance expansion for d > 1. */
  final case class KdGreedy(k: Int, agg: Agg = Agg.Sum) extends Partitioner { requireLeaves(k) }
  /** Balanced kd expansion (the KD-US baseline's partitioning). */
  final case class KdBalanced(k: Int) extends Partitioner { requireLeaves(k) }

  private def requireLeaves(k: Int): Unit = require(k >= 1, s"partition count $k must be at least 1")

  /** How many stratified samples each leaf receives; leaf i of N_i rows. */
  sealed trait Allocation extends Product with Serializable
  /** ESS-style: exactly min(n, N_i) per leaf (the per-query processed-tuple control). */
  final case class PerLeaf(n: Int) extends Allocation
  /** BSS-style: a total budget split equally, min(max(1, total / leaves), N_i) per leaf
    * (a leaf's share is capped at `Int.MaxValue` rows, more than any leaf holds).
    */
  final case class TotalBudget(total: Long) extends Allocation
  /** Proportional: each row with probability `rate`, topped up to min(2, N_i) per leaf. */
  final case class Rate(rate: Double) extends Allocation

  /** Construction output plus cost accounting for the paper's tables.
    * `droppedRows` counts the rows left out of the synopsis: a null or NaN
    * predicate coordinate or aggregate value.
    */
  final case class BuildResult(
      synopsis: PassSynopsis,
      buildMillis: Long,
      optSampleSize: Int,
      droppedRows: Long,
  )

  /** The projection to double columns and what the first scan found over its
    * kept rows: N, the data box, the optimization sample in priority order
    * (`optCoords`, `optValues`) and the uniform sample.
    */
  private[repro] final case class Prepared(
      projected: DataFrame,
      totalRows: Long,
      droppedRows: Long,
      dataRect: Rect,
      optCoords: Array[Array[Double]],
      optValues: Array[Double],
      uniform: LeafSample,
  )

  /** The default size of the optimization sample. */
  private[repro] val DefaultOptSampleSize = 4096

  /** The first scan. Casts the relevant columns to double and, in one pass
    * over the rows it keeps, computes N, the per-dimension data bounding box
    * (hi edges nudged up so the box is half-open-inclusive), a uniform
    * optimization sample of min(`optSampleSize`, N) rows and a uniform sample
    * of min(`uniformSize`, N) rows with independent priorities. `scan` reads
    * the rows; the tests pass a `Row`-decoding scan as an oracle.
    */
  private[repro] def prepare(df: DataFrame, predCols: Seq[String], aggCol: String, seed: Long = 42,
                             optSampleSize: Int = DefaultOptSampleSize, uniformSize: Int = 0,
                             scan: Scan = InternalRowScan): Prepared = {
    val cols      = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val projected = df.select(cols: _*)
    val d         = predCols.length
    val t         = scan(projected, d)(part => new TableStats(d, optSampleSize, uniformSize, seed, part))
    val (xs, vs)  = t.opt.smallest()
    Prepared(projected, t.rows, t.dropped, Rect(t.lo, t.hi.map(Math.nextUp)), xs, vs, t.uniform.toSample)
  }

  /** The first `target` rows of `p`'s optimization sample (a uniform sample
    * of that many rows), with the value after the coordinates. `prepare` drew
    * the sample, so `seed` is not used.
    */
  private[repro] def optSample(p: Prepared, target: Int, seed: Long): Array[Row] =
    Array.tabulate(math.min(target, p.optValues.length)) { i =>
      Row.fromSeq(p.optCoords(i).toSeq :+ p.optValues(i))
    }

  /** A build scan: it feeds the rows of `projected` (d coordinates, then the
    * value, all doubles) to one fresh `sink(partition id)` per Spark task,
    * dropping a row with a null field, and merges the tasks' sinks on the
    * driver in partition order, so the same input and seed give the same
    * result.
    */
  private[repro] trait Scan {
    def apply[S <: RowSink[S]: ClassTag](projected: DataFrame, d: Int)(sink: Int => S): S
  }

  /** The build's scan, over [[collectPartitions]]; the sinks come back
    * through the RDD's `collect`.
    */
  private[repro] object InternalRowScan extends Scan {
    def apply[S <: RowSink[S]: ClassTag](projected: DataFrame, d: Int)(sink: Int => S): S = {
      val parts = collectPartitions(projected) { (part, rows) =>
        val s = sink(part)
        val x = new Array[Double](d)
        while (rows.hasNext) {
          val r = rows.next()
          var j = 0
          while (j <= d && !r.isNullAt(j)) j += 1
          if (j <= d) s.drop()
          else {
            j = 0
            while (j < d) { x(j) = r.getDouble(j); j += 1 }
            s.offer(x, r.getDouble(d))
          }
        }
        s
      }
      mergeInOrder(parts, sink)
    }
  }

  /** `f(partition id, rows)` of every Spark partition of `projected`, in
    * partition order. It runs the projection's physical plan as an RDD of
    * Catalyst `InternalRow`s, which `f` reads in place (a row object may be
    * reused for the next row), inside one SQL execution started from the
    * caller's frame, so the SQL listener sees the scan, its call site and the
    * rows its plan reads. No `Row` is decoded, and the helper adds no shuffle.
    */
  private[repro] def collectPartitions[T: ClassTag](projected: DataFrame)(
      f: (Int, Iterator[InternalRow]) => T): Array[T] = {
    val qe = projected.queryExecution
    SQLExecution.withNewExecutionId(qe) {
      qe.toRdd.mapPartitionsWithIndex((part, rows) => Iterator.single(f(part, rows))).collect()
    }
  }

  /** The tasks' sinks merged in partition order (`sink(0)` if there are none). */
  private[repro] def mergeInOrder[S <: RowSink[S]](parts: Array[S], sink: Int => S): S = {
    val all = parts.headOption.getOrElse(sink(0))
    parts.iterator.drop(1).foreach(all.merge)
    all
  }

  def build(
      df: DataFrame,
      predCols: Seq[String],
      aggCol: String,
      partitioner: Partitioner,
      alloc: Allocation,
      optSampleSize: Int = DefaultOptSampleSize,
      seed: Long = 42,
  ): BuildResult = {
    val t0 = System.nanoTime()
    val p  = prepare(df, predCols, aggCol, seed, optSampleSize)
    val synopsis = buildPrepared(p, partitioner, alloc, seed)
    BuildResult(synopsis, (System.nanoTime() - t0) / 1000000L, p.optValues.length, p.droppedRows)
  }

  /** [[build]] after its first scan: the partitioning optimization over the
    * optimization sample, then the second scan. Callers that need a uniform
    * sample too (AQP++, KD-US) draw it in the same `prepare`. `scan` reads
    * the rows, as in `prepare`.
    */
  private[repro] def buildPrepared(p: Prepared, partitioner: Partitioner, alloc: Allocation,
                                   seed: Long, scan: Scan = InternalRowScan): PassSynopsis = {
    require(p.totalRows > 0, "cannot build a synopsis over an empty table")
    val d = p.dataRect.dims

    // ---- partitioning optimization (driver, over the optimization sample) ----
    def cuts1D(choose: SortedSample1D => Array[Double]): FlatTree = {
      require(d == 1, s"partitioner $partitioner incompatible with d=$d")
      PartitionTree.build1D(choose(SortedSample1D(p.optCoords.map(_(0)), p.optValues)), p.dataRect)
    }
    val skeleton = partitioner match {
      case Adp1D(k, agg, dm)      => cuts1D(Dp1D.adp(_, k, agg, dm).cuts)
      case EqualDepth1D(k)        => cuts1D(Dp1D.equalDepth(_, k).cuts)
      case Cuts1D(choose)         => cuts1D(choose)
      case KdGreedy(k, agg)       => KdTree.buildGreedy(p.optCoords, p.optValues, k, agg, p.dataRect)
      case KdBalanced(k)          => KdTree.buildBalanced(p.optCoords, p.optValues, k, p.dataRect)
    }
    val leaves = skeleton.leafCount

    // ---- the second scan: exact leaf aggregates + per-leaf samples ----------
    val (perLeaf, rate) = alloc match {
      case PerLeaf(n)     => (n, 0.0)
      case TotalBudget(t) => (math.max(1L, math.min(t / leaves, Int.MaxValue)).toInt, 0.0)
      case Rate(r)        => (2, r)
    }
    val s    = scan(p.projected, d)(part => new LeafStats(skeleton, perLeaf, rate, seed, part))
    val tree = skeleton.withLeafStats(s.count, s.sum, s.min, s.max)
    new PassSynopsis(tree, Array.tabulate(leaves)(s.sample), p.totalRows)
  }
}

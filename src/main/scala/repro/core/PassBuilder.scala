package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** Builds a [[PassSynopsis]] from a DataFrame with Spark doing all full-data
  * passes, per the construction pipeline of Sec 3.2/4:
  *
  *  1. one pass for cardinality and per-column extrema,
  *  2. a small uniform *optimization sample* collected to the driver, over
  *     which the partitioning optimizer (ADP / equal-depth / kd) runs,
  *  3. one `groupBy(leafId).agg(sum,count,min,max)` shuffle for the exact
  *     partition aggregates,
  *  4. one `stat.sampleBy(leafId, fractions)` pass for the per-leaf stratified
  *     samples (skipped when no leaf gets a sample).
  *
  * Every partitioner returns a partition-tree skeleton. A row's leaf id is a
  * deterministic UDF over the predicate columns that routes the row down that
  * tree (`PartitionTree.leafOf`); the leaf aggregates are then rolled up the tree.
  */
object PassBuilder {

  /** Which partitioning optimizer shapes the leaves. */
  sealed trait Partitioner extends Product with Serializable
  /** The paper's ADP (sampling + discretization DP) in one dimension. */
  final case class Adp1D(k: Int, agg: Agg = Agg.Sum, deltaM: Int = 0) extends Partitioner
  /** Equal-depth strata (the EQ baseline; optimal for COUNT). */
  final case class EqualDepth1D(k: Int) extends Partitioner
  /** Interior cuts chosen from the optimization sample (e.g. AQP++ hill climbing). */
  final case class Cuts1D(choose: SortedSample1D => Array[Double]) extends Partitioner
  /** KD-PASS greedy max-variance expansion for d > 1. */
  final case class KdGreedy(k: Int, agg: Agg = Agg.Sum) extends Partitioner
  /** Balanced kd expansion (the KD-US baseline's partitioning). */
  final case class KdBalanced(k: Int) extends Partitioner

  /** How many stratified samples each leaf receives. */
  sealed trait Allocation extends Product with Serializable
  /** ESS-style: a fixed count per leaf (the per-query processed-tuple control). */
  final case class PerLeaf(n: Int) extends Allocation
  /** BSS-style: a total budget split equally across leaves. */
  final case class TotalBudget(total: Long) extends Allocation
  /** Proportional: uniform within-stratum sampling rate. */
  final case class Rate(rate: Double) extends Allocation

  /** Construction output plus cost accounting for the paper's tables. */
  final case class BuildResult(
      synopsis: PassSynopsis,
      buildMillis: Long,
      optSampleSize: Int,
  )

  private[repro] final case class Prepared(
      projected: DataFrame,
      totalRows: Long,
      dataRect: Rect,
  )

  /** The default size of the optimization sample. */
  private[repro] val DefaultOptSampleSize = 4096

  /** Casts the relevant columns to double and computes N and the per-dimension
    * data bounding box (hi edges nudged up so the box is half-open-inclusive).
    */
  private[repro] def prepare(df: DataFrame, predCols: Seq[String], aggCol: String): Prepared = {
    val cols      = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val projected = df.select(cols: _*)
    val aggs = predCols.flatMap(c => Seq(min(col(c)).as(s"min_$c"), max(col(c)).as(s"max_$c"))) :+
      count(lit(1)).as("n")
    val row = projected.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n   = row.getAs[Long]("n")
    val lo  = predCols.map(c => row.getAs[Double](s"min_$c")).toArray
    val hi  = predCols.map(c => Math.nextUp(row.getAs[Double](s"max_$c"))).toArray
    Prepared(projected, n, Rect(lo, hi))
  }

  /** Collects a uniform optimization sample of ~`target` rows to the driver.
    * Oversampled collections are thinned by stride, not prefix — collect order
    * follows the data order, so `take(target)` would drop the range's tail and
    * bias every downstream cut.
    */
  private[repro] def optSample(p: Prepared, target: Int, seed: Long): Array[Row] = {
    val frac = if (p.totalRows == 0) 1.0 else math.min(1.0, target * 1.2 / p.totalRows)
    val rows = p.projected.sample(withReplacement = false, frac, seed).collect()
    if (rows.length <= target) rows
    else {
      val step = rows.length.toDouble / target
      Array.tabulate(target)(i => rows((i * step).toInt))
    }
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
    val p  = prepare(df, predCols, aggCol)
    val (synopsis, optRows) = buildPrepared(p, predCols, aggCol, partitioner, alloc, optSampleSize, seed)
    BuildResult(synopsis, (System.nanoTime() - t0) / 1000000L, optRows)
  }

  /** [[build]] over an already prepared projection; also returns the size of
    * the optimization sample. Callers that need another pass over the same
    * projection (AQP++'s uniform sample) share its `prepare`.
    */
  private[repro] def buildPrepared(
      p: Prepared,
      predCols: Seq[String],
      aggCol: String,
      partitioner: Partitioner,
      alloc: Allocation,
      optSampleSize: Int,
      seed: Long,
  ): (PassSynopsis, Int) = {
    require(p.totalRows > 0, "cannot build a synopsis over an empty table")
    val sampleRows = optSample(p, optSampleSize, seed)
    val d          = predCols.length

    // ---- partitioning optimization (driver, over the optimization sample) ----
    def cuts1D(choose: SortedSample1D => Array[Double]): TreeNode = {
      require(d == 1, s"partitioner $partitioner incompatible with d=$d")
      val s = SortedSample1D(sampleRows.map(_.getDouble(0)), sampleRows.map(_.getDouble(1)))
      PartitionTree.build1D(choose(s), p.dataRect)
    }
    lazy val pts  = sampleRows.map(r => Array.tabulate(d)(r.getDouble))
    lazy val vals = sampleRows.map(_.getDouble(d))
    val root = partitioner match {
      case Adp1D(k, agg, dm)      => cuts1D(Dp1D.adp(_, k, agg, dm).cuts)
      case EqualDepth1D(k)        => cuts1D(Dp1D.equalDepth(_, k).cuts)
      case Cuts1D(choose)         => cuts1D(choose)
      case KdGreedy(k, agg)       => KdTree.buildGreedy(pts, vals, k, agg, p.dataRect)
      case KdBalanced(k)          => KdTree.buildBalanced(pts, vals, k, p.dataRect)
    }
    val leaves = root.leaves.toArray // DFS order = leaf-id order

    // ---- full-data passes: aggregates + stratified samples --------------------
    val leafUdf = udf((xs: Seq[Double]) => PartitionTree.leafOf(root, xs.toArray))
    val withLeaf = p.projected
      .withColumn("__leaf", leafUdf(array(predCols.map(col): _*)))
      .persist()
    try {
      val statRows = withLeaf
        .groupBy("__leaf")
        .agg(
          count(col(aggCol)).as("cnt"),
          sum(col(aggCol)).as("sm"),
          min(col(aggCol)).as("mn"),
          max(col(aggCol)).as("mx"),
        )
        .collect()
      for (r <- statRows) {
        val l = leaves(r.getAs[Int]("__leaf"))
        l.count = r.getAs[Long]("cnt"); l.sum = r.getAs[Double]("sm")
        l.min = r.getAs[Double]("mn"); l.max = r.getAs[Double]("mx")
      }
      PartitionTree.rollUpTree(root)

      val targets: Map[Int, Long] = alloc match {
        case PerLeaf(n)        => leaves.map(l => l.leafId -> n.toLong).toMap
        case TotalBudget(t)    => leaves.map(l => l.leafId -> math.max(1L, t / leaves.length)).toMap
        case Rate(r)           => leaves.map(l => l.leafId -> math.max(1L, math.round(r * l.count))).toMap
      }
      val fractions: Map[Int, Double] = leaves.map { l =>
        val ni = l.count
        l.leafId -> (if (ni == 0) 0.0 else math.min(1.0, targets(l.leafId).toDouble / ni))
      }.toMap

      // no leaf gets a sample (aggregates-only synopses): skip the pass
      val sampledRows =
        if (fractions.values.forall(_ == 0.0)) Array.empty[Row]
        else withLeaf.stat.sampleBy("__leaf", fractions, seed + 1).collect()
      val byLeaf = sampledRows.groupBy(_.getAs[Int]("__leaf"))
      val samples = Array.tabulate(leaves.length)(id => byLeaf.get(id).fold(LeafSample.empty)(sampleOf(_, d)))

      (new PassSynopsis(root, leaves, samples, p.totalRows), sampleRows.length)
    } finally withLeaf.unpersist()
  }

  /** The sample of collected rows whose first `d` columns are the predicate
    * coordinates and whose column `d` is the aggregate value.
    */
  private[repro] def sampleOf(rows: Array[Row], d: Int): LeafSample =
    LeafSample(rows.map(r => Array.tabulate(d)(r.getDouble)), rows.map(_.getDouble(d)))
}

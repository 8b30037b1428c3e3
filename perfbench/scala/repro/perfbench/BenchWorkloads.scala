package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, TimestampNTZType}
import repro.bench.{GroundTruth, Workloads}
import repro.core.{Agg, PassBuilder, Rect}
import repro.core.PassBuilder.{Adp1D, Rate, TotalBudget}
import repro.data.Datasets

/** The benchmark's workloads. The run's seed makes the data (`seed` …
  * `seed + 6`) and the queries (`seed + 1`); `BuildRun` seeds the builds.
  */
object BenchWorkloads {

  /** One workload after set-up: the build input, the synopsis parameters and
    * the query list with its exact answers (`truths(i)` for `(queries(i), aggs(i))`).
    */
  final case class Input(
      df: DataFrame,
      predCols: Seq[String],
      aggCol: String,
      partitioner: PassBuilder.Partitioner,
      alloc: PassBuilder.Allocation,
      rows: Long,
      queries: Array[Rect],
      aggs: Array[Agg],
      truths: Array[Double],
      release: () => Unit,
  )

  private val cycle3 = Array[Agg](Agg.Sum, Agg.Count, Agg.Avg)

  /** PASS-BSS10x budget: ten times the uniform-sample size K = max(200, ⌈0.5 %·N⌉). */
  private def bss10x(n: Long): TotalBudget = TotalBudget(10L * math.max(200L, math.ceil(0.005 * n).toLong))

  /** Runs the workload's set-up inside `spans` children `data`, `truth` and
    * `queries` of `parent`. `ops` is the number of (range, aggregate) queries.
    */
  def setup(spark: SparkSession, name: String, sf: Double, ops: Int, seed: Long,
            dataDir: java.nio.file.Path, spans: Spans, parent: Int): Input = name match {
    case "nyc1d-answer" =>
      val df = spans("data", parent) { _ =>
        val d = Datasets.nycLite(spark, sf, seed).persist()
        d.count()
        d
      }
      val gt = spans("truth", parent)(_ => GroundTruth.collect(df, Seq("pickup_datetime"), "trip_distance"))
      val (qs, aggs, truths) = spans("queries", parent)(_ => ranges(gt, ops, seed + 1))
      Input(df, Seq("pickup_datetime"), "trip_distance", Adp1D(64, Agg.Sum), bss10x(gt.n), gt.n,
            qs, aggs, truths, () => { df.unpersist(blocking = true); () })

    case "lineitem-build" =>
      val path = dataDir.resolve(s"lineitem-$seed.parquet").toString
      val df = spans("data", parent) { _ =>
        lineitem(spark, sf, seed).write.mode("overwrite").parquet(path)
        // every build re-reads the parquet files: no persist
        spark.read.parquet(path).select(
          unix_date(to_date(col("l_shipdate"))).cast(DoubleType).as("l_shipday"),
          col("l_extendedprice"),
        )
      }
      val gt = spans("truth", parent)(_ => GroundTruth.collect(df, Seq("l_shipday"), "l_extendedprice"))
      val (qs, aggs, truths) = spans("queries", parent)(_ => ranges(gt, ops, seed + 1))
      Input(df, Seq("l_shipday"), "l_extendedprice", Adp1D(64, Agg.Sum), Rate(0.005), gt.n,
            qs, aggs, truths, () => ())

    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** `ops` 1-D ranges (each matching ≥ 1 % of rows) asked as SUM, COUNT, AVG in turn. */
  private def ranges(gt: GroundTruth, ops: Int, seed: Long): (Array[Rect], Array[Agg], Array[Double]) = {
    val qs   = Workloads.ranges1D(gt, ops, minFrac = 0.01, seed)
    val aggs = Array.tabulate(ops)(i => cycle3(i % 3))
    (qs, aggs, Array.tabulate(ops)(i => gt.answer(qs(i), aggs(i))))
  }

  /** A TPC-H-shaped `lineitem` table with the column names and types of the
    * dbgen parquet export (`l_shipdate` is TIMESTAMP_NTZ): 6M·sf rows,
    * 200k·sf parts priced by the dbgen retail-price formula, quantities 1–50,
    * ship dates uniform over 1995-01-02 … 2001-11-04.
    */
  def lineitem(spark: SparkSession, sf: Double, seed: Long): DataFrame = {
    val rows  = math.max(1000L, (6000000L * sf).toLong)
    val parts = math.max(100L, (200000L * sf).toLong)
    val supps = math.max(10L, (10000L * sf).toLong)
    val base = spark.range(rows).select(
      col("id"),
      (floor(rand(seed) * parts) + 1).cast("long").as("l_partkey"),
      (floor(rand(seed + 1) * supps) + 1).cast("long").as("l_suppkey"),
      (floor(rand(seed + 2) * 50) + 1).cast(DoubleType).as("l_quantity"),
      (floor(rand(seed + 3) * 11) / 100.0).as("l_discount"),
      (floor(rand(seed + 4) * 9) / 100.0).as("l_tax"),
      date_add(lit(java.sql.Date.valueOf("1995-01-02")), floor(rand(seed + 5) * 2498).cast(IntegerType))
        .as("ship"),
      rand(seed + 6).as("u"),
    )
    val retail = (lit(90000.0) + pmod(floor(col("l_partkey") / 10), lit(20001)) +
      pmod(col("l_partkey"), lit(1000)) * 100) / 100.0
    base.select(
      (floor(col("id") / 4) + 1).cast("long").as("l_orderkey"),
      col("l_partkey"),
      col("l_suppkey"),
      (pmod(col("id"), lit(4)) + 1).cast(IntegerType).as("l_linenumber"),
      col("l_quantity"),
      round(col("l_quantity") * retail, 2).as("l_extendedprice"),
      col("l_discount"),
      col("l_tax"),
      when(col("u") < 0.25, "R").when(col("u") < 0.5, "A").otherwise("N").as("l_returnflag"),
      when(col("ship") > lit(java.sql.Date.valueOf("1998-06-17")), "O").otherwise("F").as("l_linestatus"),
      col("ship").cast(TimestampNTZType).as("l_shipdate"),
    )
  }
}

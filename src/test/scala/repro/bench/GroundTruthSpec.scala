package repro.bench

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Agg, Rect}
import repro.data.Datasets

/** The benchmark scorer itself must be correct: the driver-side ground truth
  * is cross-checked against Spark SQL and the DuckDB oracle.
  */
class GroundTruthSpec extends SparkSpec {

  private lazy val nyc = Datasets.nycLite(spark, sf = 0.001, seed = 4).persist()
  private lazy val gt1 = GroundTruth.collect(nyc, Seq("pickup_datetime"), "trip_distance")
  private lazy val gt2 = GroundTruth.collect(nyc, Seq("pickup_time", "pickup_date"), "trip_distance")

  test("1-D prefix path agrees with an N-D style scan") {
    val scanGt = new GroundTruth(gt1.coords, gt1.values) // same data
    val rnd    = new scala.util.Random(1)
    for (_ <- 0 until 20) {
      val a = rnd.nextDouble() * 86400 * 20
      val q = Rect.range(a, a + rnd.nextDouble() * 86400 * 10)
      val (s, c, _, _) = scanGt.stats(q)
      assert(math.abs(gt1.answer(q, Agg.Sum) - s) < 1e-6 * (1 + s.abs))
      assert(gt1.answer(q, Agg.Count) == c.toDouble)
    }
  }

  test("1-D ground truth matches Spark and DuckDB") {
    val lo = 3.0 * 86400; val hi = 17.0 * 86400
    val q  = Rect.range(lo, hi)
    val sparkAgg = nyc
      .filter(col("pickup_datetime") >= lo && col("pickup_datetime") < hi)
      .agg(sum(col("trip_distance")).as("s"), count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      sparkAgg,
      s"SELECT SUM(CAST(trip_distance AS DOUBLE)) AS s, COUNT(*) AS c FROM nyc " +
        s"WHERE CAST(pickup_datetime AS DOUBLE) >= $lo AND CAST(pickup_datetime AS DOUBLE) < $hi",
      "nyc" -> nyc)
    val row = sparkAgg.collect()(0)
    assert(math.abs(gt1.answer(q, Agg.Sum) - row.getDouble(0)) < 1e-6 * (1 + row.getDouble(0)))
    assert(gt1.answer(q, Agg.Count) == row.getLong(1).toDouble)
  }

  test("2-D ground truth matches Spark and DuckDB") {
    val q = Rect(Array(6.0 * 3600, 5.0), Array(20.0 * 3600, 25.0))
    val sparkAgg = nyc
      .filter(col("pickup_time") >= q.lo(0) && col("pickup_time") < q.hi(0) &&
              col("pickup_date") >= q.lo(1) && col("pickup_date") < q.hi(1))
      .agg(sum(col("trip_distance")).as("s"), count(lit(1)).as("c"),
           min(col("trip_distance")).as("mn"), max(col("trip_distance")).as("mx"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT SUM(CAST(trip_distance AS DOUBLE)) AS s, COUNT(*) AS c, " +
        "MIN(CAST(trip_distance AS DOUBLE)) AS mn, MAX(CAST(trip_distance AS DOUBLE)) AS mx " +
        s"FROM nyc WHERE CAST(pickup_time AS DOUBLE) >= ${q.lo(0)} AND CAST(pickup_time AS DOUBLE) < ${q.hi(0)} " +
        s"AND CAST(pickup_date AS DOUBLE) >= ${q.lo(1)} AND CAST(pickup_date AS DOUBLE) < ${q.hi(1)}",
      "nyc" -> nyc)
    val row = sparkAgg.collect()(0)
    assert(math.abs(gt2.answer(q, Agg.Sum) - row.getDouble(0)) < 1e-6 * (1 + row.getDouble(0)))
    assert(gt2.answer(q, Agg.Count) == row.getLong(1).toDouble)
    assert(gt2.answer(q, Agg.Min) == row.getDouble(2))
    assert(gt2.answer(q, Agg.Max) == row.getDouble(3))
  }

  test("AVG is SUM/COUNT and NaN on empty predicates") {
    val q = Rect.range(0.0, 86400.0)
    val s = gt1.answer(q, Agg.Sum); val c = gt1.answer(q, Agg.Count)
    assert(math.abs(gt1.answer(q, Agg.Avg) - s / c) < 1e-12)
    assert(gt1.answer(Rect.range(1e15, 2e15), Agg.Avg).isNaN)
  }

  test("workload generators produce meaningful queries") {
    val qs = Workloads.ranges1D(gt1, 50, minFrac = 0.02, seed = 3)
    assert(qs.length == 50)
    assert(qs.forall(q => gt1.count(q) >= (0.02 * gt1.n).toLong / 2))
    val rects = Workloads.rects(gt2, 30, minCount = 50, seed = 4)
    assert(rects.count(r => gt2.count(r) >= 50) >= 25,
           "most rect queries should satisfy the min-count constraint")
  }
}

package repro.bench

import java.nio.file.{Files, Path}

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Agg, Rect}
import repro.data.Datasets

/** The benchmark scorer itself must be correct: the driver-side ground truth
  * is cross-checked against Spark SQL and the DuckDB oracle, and its set-up
  * (the Catalyst-row collect, the 1-D sort, the 1-D workload) against the
  * `Row`-decoding, boxed-sort reference [[RowCollect]], bit for bit.
  */
class GroundTruthSpec extends SparkSpec {

  private lazy val nyc = Datasets.nycLite(spark, sf = 0.001, seed = 4).persist()
  private lazy val gt1 = GroundTruth.collect(nyc, Seq("pickup_datetime"), "trip_distance")
  private lazy val gt2 = GroundTruth.collect(nyc, Seq("pickup_time", "pickup_date"), "trip_distance")

  /** x with ties, ±0.0, NaN and ±∞; y an int with ties; v with ±0.0 and ±∞. */
  private lazy val dirty: DataFrame = {
    import spark.implicits._
    val rnd  = new scala.util.Random(12)
    val pool = Array(-0.0, 0.0, 1.5, 1.5, -3.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    Seq.fill(5000) {
      val x = if (rnd.nextInt(4) == 0) pool(rnd.nextInt(pool.length)) else rnd.nextInt(300) * 0.5
      val v = if (rnd.nextInt(50) == 0) pool(rnd.nextInt(pool.length - 3)) else rnd.nextGaussian()
      (x, rnd.nextInt(20), v)
    }.toDF("x", "y", "v")
  }

  private lazy val parquetDir: Path = Files.createTempDirectory("ground-truth-spec")

  /** `df` written as `files` parquet files and read back. */
  private def parquet(df: DataFrame, name: String, files: Int): DataFrame = {
    val dir = parquetDir.resolve(name).toString
    df.repartition(files).write.parquet(dir)
    spark.read.parquet(dir)
  }

  override def afterAll(): Unit = {
    try {
      nyc.unpersist()
      if (Files.exists(parquetDir))
        Files.walk(parquetDir).sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
    } finally super.afterAll()
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def assertSameRects(a: Array[Rect], b: Array[Rect]): Unit = {
    assert(a.length == b.length)
    for ((x, y) <- a.zip(b)) assert(bits(x.lo) == bits(y.lo) && bits(x.hi) == bits(y.hi), s"$x vs $y")
  }

  /** The collect of `df` is bit-equal to the reference: columns, the 1-D
    * sorted column and prefix sums, and every aggregate over `queries`.
    */
  private def assertSameTruth(df: DataFrame, predCols: Seq[String], aggCol: String, queries: Seq[Rect]): Unit = {
    val gt  = GroundTruth.collect(df, predCols, aggCol)
    val ref = RowCollect(df, predCols, aggCol)
    assert(gt.n == ref.n && gt.dims == ref.dims)
    for (d <- 0 until gt.dims) assert(bits(gt.coords(d)) == bits(ref.coords(d)), s"coords($d)")
    assert(bits(gt.values) == bits(ref.values), "values")
    if (gt.dims == 1) {
      val (cs, p1) = RowCollect.sortedPrefix(ref.coords(0), ref.values)
      assert(bits(gt.sortedC) == bits(cs) && bits(gt.pre1) == bits(p1), "sorted column or prefix sums")
    }
    for (q <- queries; agg <- Agg.all) {
      val (a, b) = (gt.answer(q, agg), ref.answer(q, agg))
      assert(java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b), s"$q $agg: $a vs $b")
    }
  }

  private def someRanges(lo: Double, hi: Double, n: Int): Seq[Rect] = {
    val rnd = new scala.util.Random(5)
    Seq.fill(n) {
      val a = lo + rnd.nextDouble() * (hi - lo)
      Rect.range(a, a + rnd.nextDouble() * (hi - a))
    } ++ Seq(Rect.range(lo, hi), Rect.range(-0.0, 0.0), Rect.range(0.0, Double.PositiveInfinity))
  }

  test("the Catalyst-row collect is bit-equal to the Row collect: NYC-lite 1-D and 2-D") {
    val day = 86400.0
    assertSameTruth(nyc, Seq("pickup_datetime"), "trip_distance", someRanges(0, 40 * day, 30))
    val rects = Workloads.rects(gt2, 20, minCount = 50, seed = 4)
    assertSameTruth(nyc, Seq("pickup_time", "pickup_date"), "trip_distance", rects.toSeq)
  }

  test("the Catalyst-row collect is bit-equal to the Row collect: ties, ±0.0, NaN, ±∞, multi-file parquet") {
    val files = parquet(dirty, "dirty", 3)
    assert(files.inputFiles.length == 3)
    val qs1 = someRanges(-5, 160, 30)
    val qs2 = Seq(Rect(Array(-1.0, 2.0), Array(100.0, 11.0)), Rect(Array(-0.0, 0.0), Array(0.0, 20.0)))
    for (df <- Seq(dirty, files)) {
      assertSameTruth(df, Seq("x"), "v", qs1)
      assertSameTruth(df, Seq("y"), "v", qs1)
      assertSameTruth(df, Seq("x", "y"), "v", qs2)
    }
    assertSameTruth(parquet(nyc, "nyc", 4), Seq("pickup_datetime"), "trip_distance", someRanges(0, 4e6, 20))
  }

  test("the Catalyst-row collect of an empty frame is empty, as the Row collect's") {
    val empty = nyc.filter(lit(false))
    assertSameTruth(empty, Seq("pickup_datetime"), "trip_distance", someRanges(0, 1e6, 3))
    assertSameTruth(empty, Seq("pickup_time", "pickup_date"), "trip_distance", Seq(Rect(Array(0.0, 0.0), Array(1e5, 1e5))))
    assert(GroundTruth.collect(empty, Seq("pickup_datetime"), "trip_distance").n == 0)
  }

  test("a null field fails the collect with an error that names its column") {
    import spark.implicits._
    val rows = Seq((Option(1.0), Option(2.0), Option(3.0)), (Option(4.0), Option(5.0), None),
                   (Option(7.0), None, Option(9.0))).toDF("x", "y", "v")
    val noValue = intercept[IllegalArgumentException](GroundTruth.collect(rows, Seq("x"), "v"))
    assert(noValue.getMessage.contains("column v"), noValue.getMessage)
    val noCoord = intercept[IllegalArgumentException](GroundTruth.collect(rows.filter(col("v").isNotNull), Seq("x", "y"), "v"))
    assert(noCoord.getMessage.contains("column y"), noCoord.getMessage)
    assert(GroundTruth.collect(rows.filter(col("v").isNotNull), Seq("x"), "v").n == 2)
  }

  test("ranges1D reads the truth's sorted column and draws the Rects of the old sort") {
    for (seed <- 1L to 4L; minFrac <- Seq(0.01, 0.02, 0.3))
      assertSameRects(Workloads.ranges1D(gt1, 40, minFrac, seed), RowCollect.ranges1D(gt1, 40, minFrac, seed))
    // ties and ±0.0, but no NaN or +∞ (Spark sorts NaN above +∞)
    val clean = GroundTruth.collect(dirty.filter(col("x") < Double.PositiveInfinity), Seq("x"), "v")
    assertSameRects(Workloads.ranges1D(clean, 40, 0.05, 7), RowCollect.ranges1D(clean, 40, 0.05, 7))
  }

  test("ranges1D draws its endpoints from the coordinates below NaN and +∞") {
    val gt = GroundTruth.collect(dirty, Seq("x"), "v")
    val m  = gt.coords(0).count(_ < Double.PositiveInfinity)
    assert(gt.coords(0).exists(_.isNaN) && gt.coords(0).contains(Double.PositiveInfinity))
    for (seed <- 1L to 3L; minFrac <- Seq(0.01, 0.2, 0.9)) {
      for (q <- Workloads.ranges1D(gt, 50, minFrac, seed)) {
        assert(!q.lo(0).isNaN && !q.hi(0).isNaN, s"$q")
        assert(gt.count(q) >= math.max(1, (minFrac * m).toInt), s"$q matches ${gt.count(q)} of $m rows")
      }
    }
    val noRange = new GroundTruth(Array(Array(Double.NaN, Double.PositiveInfinity)), Array(1.0, 2.0))
    intercept[IllegalArgumentException](Workloads.ranges1D(noRange, 1, 0.1, 1))
  }

  test("1-D prefix path agrees with an N-D style scan") {
    val scanGt = new GroundTruth(gt1.coords, gt1.values) // same data
    val rnd    = new scala.util.Random(1)
    val random = Seq.fill(20) {
      val a = rnd.nextDouble() * 86400 * 20
      Rect.range(a, a + rnd.nextDouble() * 86400 * 10)
    }
    // inverted and NaN-bounded ranges match no row
    val mid   = 86400.0 * 10
    val empty = Seq(Rect.range(mid, Double.NaN), Rect.range(Double.NaN, mid), Rect.range(mid, mid - 86400 * 3),
                    Rect.range(Double.NaN, Double.NaN))
    for (q <- random ++ empty) {
      val (s, c, _, _) = scanGt.stats(q)
      assert(math.abs(gt1.answer(q, Agg.Sum) - s) < 1e-6 * (1 + s.abs))
      assert(gt1.answer(q, Agg.Count) == c.toDouble)
    }
    for (q <- empty) assert(gt1.answer(q, Agg.Avg).isNaN, q)
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

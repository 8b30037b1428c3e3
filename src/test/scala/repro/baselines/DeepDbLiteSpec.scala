package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import repro.{SparkSpec, SparkWork}
import repro.core.{Agg, Rect}
import repro.bench.GroundTruth
import repro.data.Datasets

/** Histogram unit tests (pure) for the DeepDB-lite leaves. */
class HistogramSpec extends AnyFunSuite {

  /** The per-row expected mass E[x · 1(lo <= x < hi)] under the histogram's
    * within-bucket uniform assumption.
    */
  private def meanMass(h: Histogram, lo: Double, hi: Double): Double =
    if (h.rows == 0) 0.0 else h.sums.indices.map(b => h.sums(b) * h.overlapFraction(b, lo, hi)).sum / h.rows

  test("prob over the full range is 1 and over a disjoint range is 0") {
    val h = Histogram.build(Array.tabulate(1000)(_.toDouble), 32)
    assert(math.abs(h.prob(Double.NegativeInfinity, Double.PositiveInfinity) - 1.0) < 1e-9)
    assert(h.prob(5000, 6000) == 0.0)
  }

  for (seed <- 0 until 6) {
    test(s"prob approximates the empirical fraction (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val xs  = Array.fill(5000)(rnd.nextDouble() * 100)
      val h   = Histogram.build(xs, 64)
      for (_ <- 0 until 10) {
        val lo = rnd.nextDouble() * 80
        val hi = lo + 5 + rnd.nextDouble() * 20
        val emp = xs.count(x => x >= lo && x < hi).toDouble / xs.length
        assert(math.abs(h.prob(lo, hi) - emp) < 0.03, s"[$lo,$hi): ${h.prob(lo, hi)} vs $emp")
      }
    }

    test(s"meanMass approximates the empirical mean mass (seed=$seed)") {
      val rnd = new scala.util.Random(seed + 50)
      val xs  = Array.fill(5000)(rnd.nextDouble() * 100)
      val h   = Histogram.build(xs, 64)
      for (_ <- 0 until 10) {
        val lo = rnd.nextDouble() * 80
        val hi = lo + 10 + rnd.nextDouble() * 20
        val emp = xs.filter(x => x >= lo && x < hi).sum / xs.length
        assert(math.abs(meanMass(h, lo, hi) - emp) < emp * 0.15 + 0.5)
      }
    }
  }

  test("point-mass columns (many duplicates) behave") {
    val xs = Array.fill(900)(5.0) ++ Array.fill(100)(7.0)
    val h  = Histogram.build(xs, 16)
    assert(math.abs(h.prob(4.9, 5.1) - 0.9) < 0.05)
    assert(math.abs(h.mean - 5.2) < 0.05)
  }
}

/** SPN structure/inference tests through the Spark build path. */
class DeepDbLiteSpec extends SparkSpec {

  test("independent uniform columns give accurate COUNT estimates") {
    // fully independent data: the product decomposition should be near-exact
    val rnd  = new scala.util.Random(1)
    val rows = Array.fill(20000)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10, rnd.nextDouble() * 5))
    val root = DeepDbLite.train(rows, 3, seed = 2)
    val syn  = new DeepDbLiteSynopsis(root, rows.length, rows.length, 2)
    for (_ <- 0 until 15) {
      val lo0 = rnd.nextDouble() * 5; val lo1 = rnd.nextDouble() * 5
      val q   = Rect(Array(lo0, lo1), Array(lo0 + 3, lo1 + 3))
      val truth = rows.count(r => q.contains(r.take(2))).toDouble
      val est   = syn.answer(q, Agg.Count).value
      assert(math.abs(est - truth) / math.max(1.0, truth) < 0.10, s"est=$est truth=$truth")
    }
  }

  test("SUM expectation uses the aggregation column leaf") {
    val rnd  = new scala.util.Random(3)
    val rows = Array.fill(20000)(Array(rnd.nextDouble() * 10, 2.0 + rnd.nextDouble()))
    val root = DeepDbLite.train(rows, 2, seed = 4)
    val syn  = new DeepDbLiteSynopsis(root, rows.length, rows.length, 1)
    val q     = Rect(Array(2.0), Array(8.0))
    val truth = rows.filter(r => r(0) >= 2 && r(0) < 8).map(_(1)).sum
    val est   = syn.answer(q, Agg.Sum).value
    assert(math.abs(est - truth) / truth < 0.10, s"est=$est truth=$truth")
  }

  test("correlated columns trigger sum (clustering) splits") {
    val rnd = new scala.util.Random(5)
    // two clear clusters with strong intra-cluster correlation
    val rows = Array.fill(8000) {
      if (rnd.nextBoolean()) { val x = rnd.nextDouble() * 3; Array(x, x * 2 + rnd.nextGaussian() * 0.1, 1.0) }
      else { val x = 6 + rnd.nextDouble() * 3; Array(x, x * 2 + rnd.nextGaussian() * 0.1, 5.0) }
    }
    val root = DeepDbLite.train(rows, 3, seed = 6)
    def hasSum(n: SpnNode): Boolean = n match {
      case _: SpnSum          => true
      case SpnProduct(cs, _)  => cs.exists(hasSum)
      case _                  => false
    }
    assert(hasSum(root), "expected at least one sum node on clustered data")
  }

  test("Spark build trains from a sample and answers end-to-end") {
    val df = Datasets.nycLite(spark, sf = 0.002, seed = 9).persist()
    try {
      val gt = GroundTruth.collect(df, Seq("pickup_datetime"), "trip_distance")
      val (syn, ms) = DeepDbLite.build(df, Seq("pickup_datetime"), "trip_distance", gt.n / 2, seed = 10)
      assert(ms >= 0 && syn.trainRows > 100)
      val rnd = new scala.util.Random(11)
      val errs = Seq.fill(25) {
        val a = rnd.nextDouble() * 86400 * 10
        Rect.range(a, a + 86400 * 5 + rnd.nextDouble() * 86400 * 10)
      }.flatMap { q =>
        val truth = gt.answer(q, Agg.Count)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, Agg.Count).value - truth) / truth)
      }.sorted
      assert(errs.nonEmpty && errs(errs.length / 2) < 0.25, s"median RE ${errs.lift(errs.length / 2)}")
    } finally df.unpersist()
  }

  test("AVG falls out as SUM/COUNT ratio") {
    val rnd  = new scala.util.Random(13)
    val rows = Array.fill(10000)(Array(rnd.nextDouble() * 10, 3.0 + rnd.nextGaussian() * 0.01))
    val root = DeepDbLite.train(rows, 2, seed = 14)
    val syn  = new DeepDbLiteSynopsis(root, rows.length, rows.length, 1)
    val est  = syn.answer(Rect(Array(1.0), Array(9.0)), Agg.Avg).value
    assert(math.abs(est - 3.0) < 0.1)
  }

  test("MIN/MAX are unsupported (NaN) — the paper's comparison never uses them") {
    val rows = Array.fill(1000)(Array(1.0, 2.0))
    val root = DeepDbLite.train(rows, 2, seed = 15)
    val syn  = new DeepDbLiteSynopsis(root, 1000, 1000, 1)
    assert(syn.answer(Rect(Array(0.0), Array(5.0)), Agg.Min).value.isNaN)
  }

  /** `body`, run off the test thread and awaited for at most two minutes: a
    * build that spins in a loop which never checks for interrupts (which
    * `failAfter` could not stop) then fails the test instead of hanging the run.
    */
  private def endsWithin[T](body: => T): T = Await.result(Future(body)(ExecutionContext.global), 2.minutes)

  test("DeepDB-lite trains only on rows with no null field and no NaN coordinate") {
    import spark.implicits._
    val rows = (Seq.tabulate(500)(i => (Option(i.toDouble), Option(i % 9 * 1.0))) ++
      Seq((Some(Double.NaN), Some(1.0)), (None, Some(1.0)), (Some(7.5), None))).toDF("x", "v")
    val (syn, _) = endsWithin(DeepDbLite.build(rows, Seq("x"), "v", trainRows = 1000))
    assert(syn.totalRows == 500 && syn.trainRows == 500)
    assert(math.abs(syn.answer(Rect.range(0, 500), Agg.Count).value - 500) < 1e-6)
  }

  test("DeepDB-lite drops a row with a NaN aggregate value") {
    import spark.implicits._
    val rows = (Seq.tabulate(500)(i => (i.toDouble, i % 9 * 1.0)) :+ ((3.5, Double.NaN))).toDF("x", "v")
    val (syn, _) = endsWithin(DeepDbLite.build(rows, Seq("x"), "v", trainRows = 1000))
    assert(syn.totalRows == 500 && syn.trainRows == 500)
    assert(math.abs(syn.answer(Rect.range(0, 500), Agg.Count).value - 500) < 1e-6)
  }

  test("a DeepDB-lite build is one SQL execution that reads each row once") {
    val df = Datasets.nycLite(spark, sf = 0.002, seed = 9).persist()
    try {
      val n = df.count()
      val w = SparkWork.of(spark.sparkContext) {
        val (syn, _) = DeepDbLite.build(df, Seq("pickup_datetime", "pickup_time"), "trip_distance", 300)
        assert(syn.totalRows == n && syn.trainRows == 300)
      }
      w.synchronized {
        assert(w.executions.length == 1, w.executions.mkString("\n---\n"))
        assert(w.rowsRead == n, s"read ${w.rowsRead} rows, N = $n")
      }
    } finally df.unpersist()
  }

  test("DeepDB-lite rejects an empty training sample size") {
    intercept[IllegalArgumentException](DeepDbLite.build(spark.range(10).toDF("x"), Seq("x"), "x", 0))
  }

  test("storage accounting is positive and bounded by training size") {
    val rnd  = new scala.util.Random(16)
    val rows = Array.fill(5000)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val syn  = new DeepDbLiteSynopsis(DeepDbLite.train(rows, 2, seed = 17), 5000, 5000, 1)
    assert(syn.storageBytes > 0)
    assert(syn.storageBytes < 5000L * 2 * 8, "model must be smaller than raw data")
  }
}

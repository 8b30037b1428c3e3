package repro.baselines

import repro.{SparkSpec, SparkWork}
import repro.core._
import repro.bench.GroundTruth
import repro.data.Datasets

/** AQP++ (hill-climbed partition aggregates + uniform gap sampling) and the
  * KD-US multi-dimensional variant.
  */
class AqpPlusPlusSpec extends SparkSpec {

  private lazy val df = Datasets.nycLite(spark, sf = 0.002, seed = 5).persist()
  private lazy val gt = GroundTruth.collect(df, Seq("pickup_datetime"), "trip_distance")

  private def queries(seed: Long, n: Int): Seq[Rect] = {
    val rnd = new scala.util.Random(seed)
    val cs  = gt.coords(0).sorted
    Seq.fill(n) {
      val i = rnd.nextInt(cs.length / 2)
      val j = math.min(cs.length - 1, i + cs.length / 8 + rnd.nextInt(cs.length / 3))
      Rect.range(cs(i), Math.nextUp(cs(j)))
    }
  }

  test("hillClimbCuts returns sorted interior cuts and never worsens the start") {
    val rnd = new scala.util.Random(1)
    val s = SortedSample1D(Array.fill(300)(rnd.nextDouble() * 50),
                           Array.fill(300)(math.exp(rnd.nextGaussian())))
    val cuts = AqpPlusPlus.hillClimbCuts(s, k = 8)
    assert(cuts.length == 7)
    assert(cuts.sliding(2).forall(p => p(0) <= p(1)))
  }

  test("hillClimbCuts handles degenerate inputs") {
    val s = SortedSample1D(Array(1.0, 2.0), Array(1.0, 1.0))
    assert(AqpPlusPlus.hillClimbCuts(s, 1).isEmpty)
    val empty = SortedSample1D(Array.empty[Double], Array.empty[Double])
    assert(AqpPlusPlus.hillClimbCuts(empty, 4).isEmpty)
  }

  test("AQP++ and KD-US reject a uniform sample of more rows than an Int counts, before reading the table") {
    // 2^31 to 2^32 - 1 wrap to a negative Int; a null table fails if it is read
    for (tooMany <- Seq(1L << 31, (1L << 32) - 1)) {
      intercept[IllegalArgumentException](
        AqpPlusPlus.build(null, Seq("x"), "v", partitions = 4, totalSamples = tooMany))
      intercept[IllegalArgumentException](
        AqpPlusPlus.buildKdUs(null, Seq("x", "y"), "v", leaves = 4, totalSamples = tooMany))
    }
  }

  test("AQP++ exact for partition-aligned queries") {
    val (syn, _) = AqpPlusPlus.build(df, Seq("pickup_datetime"), "trip_distance",
      partitions = 16, totalSamples = 500, seed = 3)
    // a query equal to one partition's bounds must be answered from aggregates
    val leaf = syn.tree.leaves.find(_.count > 0).get
    val est  = syn.answer(leaf.bounds, Agg.Sum)
    assert(math.abs(est.value - leaf.sum) < 1e-6 * (1 + leaf.sum.abs))
    assert(est.ciHalf == 0.0)
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"AQP++ median relative error is small on range queries ($agg)") {
      val (syn, _) = AqpPlusPlus.build(df, Seq("pickup_datetime"), "trip_distance",
        partitions = 32, totalSamples = 2000, seed = 7)
      val errs = queries(10, 40).flatMap { q =>
        val truth = gt.answer(q, agg)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, agg).value - truth) / math.abs(truth))
      }.sorted
      assert(errs(errs.length / 2) < 0.10, s"median RE ${errs(errs.length / 2)}")
    }
  }

  test("AQP++ is more accurate than US alone at the same sample budget") {
    val budget   = 1500
    val (us, _)  = UniformSampling.build(df, Seq("pickup_datetime"), "trip_distance", budget, seed = 9)
    val (ap, _)  = AqpPlusPlus.build(df, Seq("pickup_datetime"), "trip_distance", 32, budget, seed = 9)
    def medRe(answer: (Rect, Agg) => Estimate): Double = {
      val errs = queries(11, 60).flatMap { q =>
        val truth = gt.answer(q, Agg.Sum)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(answer(q, Agg.Sum).value - truth) / math.abs(truth))
      }.sorted
      errs(errs.length / 2)
    }
    assert(medRe(ap.answer) <= medRe(us.answer) + 0.01,
           "partition aggregates should not hurt accuracy")
  }

  test("KD-US builds a balanced multi-d tree and answers sanely") {
    val cols = Seq("pickup_time", "pickup_date")
    val gt2  = GroundTruth.collect(df, cols, "trip_distance")
    val (syn, _) = AqpPlusPlus.buildKdUs(df, cols, "trip_distance",
      leaves = 32, totalSamples = 2000, seed = 13)
    assert(syn.tree.leaves.size > 1)
    val rnd = new scala.util.Random(14)
    val errs = Seq.fill(25) {
      val lo0 = rnd.nextDouble() * 40000; val lo1 = rnd.nextDouble() * 10
      Rect(Array(lo0, lo1), Array(lo0 + 30000 + rnd.nextDouble() * 10000, lo1 + 10 + rnd.nextDouble() * 10))
    }.flatMap { q =>
      val truth = gt2.answer(q, Agg.Sum)
      if (truth.isNaN || truth == 0) None
      else Some(math.abs(syn.answer(q, Agg.Sum).value - truth) / math.abs(truth))
    }.sorted
    assert(errs.nonEmpty && errs(errs.length / 2) < 0.25, s"median RE ${errs.lift(errs.length / 2)}")
  }

  test("gap moments exclude covered regions (no double counting)") {
    val (syn, _) = AqpPlusPlus.build(df, Seq("pickup_datetime"), "trip_distance",
      partitions = 8, totalSamples = 1000, seed = 17)
    // whole-data query: gap should be empty, answer exactly the root sum
    val full = Rect.range(Double.NegativeInfinity, Double.PositiveInfinity)
    val est  = syn.answer(full, Agg.Sum)
    assert(math.abs(est.value - syn.tree.root.sum) < 1e-6 * (1 + syn.tree.root.sum.abs))
    assert(est.ciHalf == 0.0)
  }

  /** Rows read by the leaf scans of the SQL executions `build` runs. */
  private def scannedRows(build: => Unit): Long = {
    val w = SparkWork.of(spark.sparkContext)(build)
    w.synchronized(w.rowsRead)
  }

  test("AQP++ and KD-US builds read the table twice") {
    val n = df.count()
    // prepare (with the uniform sample), then the routed scan for the partition aggregates
    val aqp = scannedRows {
      AqpPlusPlus.build(df, Seq("pickup_datetime"), "trip_distance", partitions = 16, totalSamples = 500)
    }
    assert(aqp == 2 * n, s"AQP++ read $aqp rows, N = $n")
    val kdUs = scannedRows {
      AqpPlusPlus.buildKdUs(df, Seq("pickup_time", "pickup_date"), "trip_distance", leaves = 16,
        totalSamples = 500)
    }
    assert(kdUs == 2 * n, s"KD-US read $kdUs rows, N = $n")
  }

  test("US and PASS builds read the table once and twice") {
    val n  = df.count()
    val us = scannedRows(UniformSampling.build(df, Seq("pickup_datetime"), "trip_distance", k = 500))
    assert(us == n, s"US read $us rows, N = $n")
    val pass = scannedRows {
      PassBuilder.build(df, Seq("pickup_datetime"), "trip_distance", PassBuilder.Adp1D(16), PassBuilder.Rate(0.05))
    }
    assert(pass == 2 * n, s"PASS read $pass rows, N = $n")
  }
}

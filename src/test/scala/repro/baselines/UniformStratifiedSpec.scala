package repro.baselines

import repro.SparkSpec
import repro.core.{Agg, Rect}
import repro.bench.GroundTruth
import repro.data.Datasets

/** US and ST baselines against driver-side ground truth on small synthetic
  * datasets built through the real Spark pipeline.
  */
class UniformStratifiedSpec extends SparkSpec {

  private lazy val df = Datasets.intelLite(spark, sf = 0.004, seed = 3).persist()
  private lazy val gt = GroundTruth.collect(df, Seq("time"), "light")

  private def queries(seed: Long, n: Int = 30): Seq[Rect] = {
    val rnd = new scala.util.Random(seed)
    val cs  = gt.coords(0).sorted
    Seq.fill(n) {
      val i = rnd.nextInt(cs.length / 2)
      val j = i + cs.length / 10 + rnd.nextInt(cs.length / 3)
      Rect.range(cs(i), Math.nextUp(cs(math.min(j, cs.length - 1))))
    }
  }

  test("US build draws exactly min(K, N) samples") {
    val (syn, _) = UniformSampling.build(df, Seq("time"), "light", k = 2000, seed = 5)
    assert(syn.k == math.min(2000, gt.n), s"got ${syn.k}")
    assert(syn.totalRows == gt.n)
    val (all, _) = UniformSampling.build(df, Seq("time"), "light", k = gt.n + 10, seed = 5)
    assert(all.k == gt.n)
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"US median relative error is small on wide queries ($agg)") {
      val (syn, _) = UniformSampling.build(df, Seq("time"), "light", k = 3000, seed = 11)
      val errs = queries(1).flatMap { q =>
        val truth = gt.answer(q, agg)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, agg).value - truth) / math.abs(truth))
      }.sorted
      assert(errs(errs.length / 2) < 0.15, s"median RE ${errs(errs.length / 2)}")
    }
  }

  test("US CI covers the truth for most queries at 99%") {
    val (syn, _) = UniformSampling.build(df, Seq("time"), "light", k = 3000, seed = 13)
    var cov = 0; var tot = 0
    for (q <- queries(2, 60)) {
      val truth = gt.answer(q, Agg.Sum)
      if (!truth.isNaN && truth != 0) {
        val est = syn.answer(q, Agg.Sum)
        tot += 1
        if (math.abs(est.value - truth) <= est.ciHalf) cov += 1
      }
    }
    assert(cov.toDouble / tot >= 0.9, s"coverage ${cov.toDouble / tot}")
  }

  test("US MIN/MAX return observed extrema within the true range") {
    val (syn, _) = UniformSampling.build(df, Seq("time"), "light", k = 3000, seed = 17)
    for (q <- queries(3, 10)) {
      val tMin = gt.answer(q, Agg.Min); val tMax = gt.answer(q, Agg.Max)
      if (!tMin.isNaN) {
        assert(syn.answer(q, Agg.Min).value >= tMin - 1e-9)
        assert(syn.answer(q, Agg.Max).value <= tMax + 1e-9)
      }
    }
  }

  // ---- VerdictDB-lite (Table 2): US at K = ⌈r·N⌉ for scramble ratio r. The
  // 100% sample must be (near-)exact; the 10% one trades accuracy for storage.

  private lazy val insta   = Datasets.instacartLite(spark, sf = 0.01, seed = 2).persist()
  private lazy val instaGt = GroundTruth.collect(insta, Seq("product_id"), "reordered")

  private def scramble(ratio: Double, seed: Long): UniformSampleSynopsis =
    UniformSampling.build(insta, Seq("product_id"), "reordered",
      math.ceil(ratio * instaGt.n).toInt, seed = seed)._1

  private def instaQueries(seed: Long, n: Int): Seq[Rect] = {
    // stay in the populated head of the Zipf key space so a 10% sample has
    // matching rows (the empty tail is the selective-query failure mode PASS
    // addresses, tested elsewhere)
    val rnd = new scala.util.Random(seed)
    Seq.fill(n) {
      val a = rnd.nextDouble() * 500
      Rect.range(a, a + 1000 + rnd.nextDouble() * 8000)
    }
  }

  test("US and AQP++ leave out rows with a NaN or null value or a NaN or null coordinate") {
    import spark.implicits._
    val rows = (Seq.tabulate(500)(i => (Option(i.toDouble), Option(i % 9 * 1.0))) ++
      Seq((Some(Double.NaN), Some(1.0)), (None, Some(1.0)), (Some(7.5), None), (Some(8.5), Some(Double.NaN))))
      .toDF("x", "v")
    val (us, _) = UniformSampling.build(rows, Seq("x"), "v", k = 1000)
    assert(us.k == 500 && us.totalRows == 500)
    assert(!us.sample.values.exists(_.isNaN) && !us.sample.columns(0).exists(_.isNaN))
    val (aqp, _) = AqpPlusPlus.build(rows, Seq("x"), "v", partitions = 4, totalSamples = 100)
    assert(aqp.totalRows == 500 && aqp.tree.root.count == 500 && aqp.sample.size == 100)
  }

  test("US rejects a sample size below 1") {
    intercept[IllegalArgumentException] { UniformSampling.build(insta, Seq("product_id"), "reordered", 0) }
    intercept[IllegalArgumentException] { UniformSampling.build(insta, Seq("product_id"), "reordered", -1) }
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"US at K = N answers near-exactly ($agg)") {
      val syn = scramble(1.0, seed = 3)
      for (q <- instaQueries(1, 15)) {
        val truth = instaGt.answer(q, agg)
        if (!truth.isNaN && truth != 0) {
          val est = syn.answer(q, agg)
          assert(math.abs(est.value - truth) / math.abs(truth) < 1e-6,
                 s"q=$q est=${est.value} truth=$truth")
        }
      }
    }
  }

  test("US at 10% of N is noisier than at N but unbiased-ish") {
    val s10  = scramble(0.10, seed = 5)
    val s100 = scramble(1.0, seed = 5)
    def medRe(syn: UniformSampleSynopsis): Double = {
      val errs = instaQueries(2, 40).flatMap { q =>
        val truth = instaGt.answer(q, Agg.Sum)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, Agg.Sum).value - truth) / math.abs(truth))
      }.sorted
      errs(errs.length / 2)
    }
    val e10 = medRe(s10); val e100 = medRe(s100)
    assert(e100 < 1e-6)
    assert(e10 > e100)
    assert(e10 < 0.4, s"10% sample median RE $e10 unexpectedly large")
  }

  test("US storage scales with the sampled share of N") {
    val s10  = scramble(0.10, seed = 7)
    val s100 = scramble(1.0, seed = 7)
    assert(s100.storageBytes > 5L * s10.storageBytes)
    assert(math.abs(s100.k - instaGt.n) < instaGt.n * 0.01)
  }

  test("ST build creates the requested strata with roughly equal sample shares") {
    val (syn, _) = StratifiedSampling.build(df, Seq("time"), "light",
      strata = 16, totalSamples = 1600, seed = 19)
    assert(syn.storedSamples > 800 && syn.storedSamples < 2400, s"got ${syn.storedSamples}")
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"ST is at least as accurate as US at equal budget on range queries ($agg)") {
      val budget  = 2000
      val (us, _) = UniformSampling.build(df, Seq("time"), "light", budget, seed = 23)
      val (st, _) = StratifiedSampling.build(df, Seq("time"), "light", 16, budget, seed = 23)
      def medianRe(answer: (Rect, Agg) => repro.core.Estimate): Double = {
        val errs = queries(4, 60).flatMap { q =>
          val truth = gt.answer(q, agg)
          if (truth.isNaN || truth == 0) None
          else Some(math.abs(answer(q, agg).value - truth) / math.abs(truth))
        }.sorted
        errs(errs.length / 2)
      }
      // allow some slack — both are unbiased, ST should not be dramatically worse
      assert(medianRe(st.answer) <= medianRe(us.answer) * 2.5 + 0.02)
    }
  }

  test("ST answers exact zero for disjoint predicates") {
    val (st, _) = StratifiedSampling.build(df, Seq("time"), "light", 8, 800, seed = 29)
    val est = st.answer(Rect.range(1e12, 2e12), Agg.Sum)
    assert(est.value == 0.0)
  }

  test("ST rejects multi-dimensional predicate columns") {
    intercept[IllegalArgumentException] {
      StratifiedSampling.build(df, Seq("time", "light"), "light", 4, 100)
    }
  }
}

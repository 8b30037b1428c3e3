package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.{AqpPlusPlus, StratifiedSampling}
import repro.bench.GroundTruth
import repro.data.Datasets

/** End-to-end Spark construction tests: the routed scan's partition
  * statistics and per-leaf reservoirs must be internally consistent, DuckDB-
  * verified, and the resulting synopsis accurate.
  */
class PassBuilderSpec extends SparkSpec {

  private lazy val intel = Datasets.intelLite(spark, sf = 0.003, seed = 1).persist()
  private lazy val gt    = GroundTruth.collect(intel, Seq("time"), "light")

  private def buildAdp(k: Int = 16, rate: Double = 0.05) =
    PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.Adp1D(k, Agg.Sum), PassBuilder.Rate(rate), optSampleSize = 1500, seed = 5)

  test("whole-table aggregates match DuckDB (oracle check of the substrate)") {
    val sparkAgg = intel.agg(
      sum(col("light")).as("s"),
      count(lit(1)).as("c"),
      min(col("light")).as("mn"),
      max(col("light")).as("mx"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT SUM(CAST(light AS DOUBLE)) AS s, COUNT(*) AS c, " +
        "MIN(CAST(light AS DOUBLE)) AS mn, MAX(CAST(light AS DOUBLE)) AS mx FROM intel",
      "intel" -> intel)
  }

  test("tree statistics aggregate exactly to the whole table") {
    val r = buildAdp()
    val syn = r.synopsis
    assert(TreeInvariants.violations(syn.root).isEmpty)
    assert(syn.root.count == gt.n)
    val total = gt.values.sum
    assert(math.abs(syn.root.sum - total) < 1e-6 * (1 + total.abs))
    assert(syn.root.min == gt.values.min)
    assert(syn.root.max == gt.values.max)
  }

  test("leaves tile the predicate range with no gaps") {
    val leaves = buildAdp().synopsis.leaves.sortBy(_.bounds.lo(0))
    assert(leaves.head.bounds.lo(0) <= gt.coords(0).min)
    assert(leaves.last.bounds.hi(0) > gt.coords(0).max)
    for (i <- 0 until leaves.length - 1)
      assert(leaves(i).bounds.hi(0) == leaves(i + 1).bounds.lo(0), s"gap after leaf $i")
  }

  test("every stratified sample lies inside its leaf bounds") {
    val syn = buildAdp().synopsis
    for (l <- syn.leaves; s = syn.samples(l.leafId); i <- 0 until s.size)
      assert(l.bounds.containsFrom(s.columns, i, 0), s"sample outside leaf ${l.bounds}")
  }

  test("Rate allocation draws approximately rate * N_i per leaf") {
    val syn = buildAdp(rate = 0.10).synopsis
    for (l <- syn.leaves if l.count > 200) {
      val got = syn.samples(l.leafId).size.toDouble
      val want = 0.10 * l.count
      assert(math.abs(got - want) < want * 0.5 + 10, s"leaf ${l.leafId}: $got vs $want")
    }
  }

  test("Rate allocation keeps at least min(2, N_i) rows per leaf") {
    val syn = buildAdp(k = 32, rate = 0.0005).synopsis
    for (l <- syn.leaves)
      assert(syn.samples(l.leafId).size >= math.min(2L, l.count), s"leaf ${l.leafId}: N_i = ${l.count}")
  }

  test("TotalBudget allocation keeps exactly min(t / leaves, N_i) per leaf") {
    val r = PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.EqualDepth1D(8), PassBuilder.TotalBudget(800), seed = 6)
    for (l <- r.synopsis.leaves)
      assert(r.synopsis.samples(l.leafId).size == math.min(100L, l.count), s"leaf ${l.leafId}")
  }

  test("a TotalBudget share of 2^31 rows or more per leaf keeps every row of every leaf") {
    import spark.implicits._
    val tiny = Seq.tabulate(640)(i => (i * 0.5, (i % 9).toDouble)).toDF("x", "v")
    for (t <- Seq(1L << 37, Long.MaxValue)) {
      val syn = PassBuilder.build(tiny, Seq("x"), "v", PassBuilder.EqualDepth1D(64), PassBuilder.TotalBudget(t),
        seed = 2).synopsis
      assert(syn.leaves.length == 64)
      for (l <- syn.leaves) assert(syn.samples(l.leafId).size == l.count, s"TotalBudget($t) leaf ${l.leafId}")
      assert(syn.storedSamples == 640)
    }
    val (st, _) = repro.baselines.StratifiedSampling.build(tiny, Seq("x"), "v", strata = 64,
      totalSamples = 1L << 37, seed = 2)
    assert(st.storedSamples == 640 && st.totalRows == 640)
  }

  test("PerLeaf allocation gives every leaf exactly min(n, N_i) samples") {
    val r = PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.Adp1D(32, Agg.Sum), PassBuilder.PerLeaf(40), optSampleSize = 1500, seed = 9)
    assert(r.synopsis.leaves.exists(_.count < 40)) // both sides of the min occur
    for (l <- r.synopsis.leaves)
      assert(r.synopsis.samples(l.leafId).size == math.min(40L, l.count), s"leaf ${l.leafId}")
  }

  test("PerLeaf(0) yields an aggregates-only synopsis") {
    val r = PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.EqualDepth1D(8), PassBuilder.PerLeaf(0), seed = 7)
    assert(r.synopsis.storedSamples == 0)
  }

  test("EqualDepth1D leaves have roughly equal cardinalities") {
    val r = PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.EqualDepth1D(16), PassBuilder.PerLeaf(5), optSampleSize = 3000, seed = 8)
    val counts = r.synopsis.leaves.map(_.count.toDouble)
    val mean   = counts.sum / counts.length
    assert(counts.forall(c => c > mean * 0.5 && c < mean * 1.7),
           s"counts=${counts.toSeq} mean=$mean")
  }

  test("partition-aligned query is answered exactly (vs driver ground truth)") {
    val syn = buildAdp().synopsis
    val l   = syn.leaves.sortBy(_.bounds.lo(0)).apply(3)
    for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
      val est   = syn.answer(l.bounds, agg)
      val truth = gt.answer(l.bounds, agg)
      assert(math.abs(est.value - truth) <= 1e-6 * (1 + truth.abs), s"$agg: ${est.value} vs $truth")
      assert(est.ciHalf == 0.0)
    }
  }

  test("aligned query also matches DuckDB end-to-end") {
    val syn = buildAdp().synopsis
    val l   = syn.leaves.sortBy(_.bounds.lo(0)).apply(5)
    val (lo, hi) = (l.bounds.lo(0), l.bounds.hi(0))
    val sparkAgg = intel
      .filter(col("time") >= lo && col("time") < hi)
      .agg(sum(col("light")).as("s"), count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      sparkAgg,
      s"SELECT SUM(CAST(light AS DOUBLE)) AS s, COUNT(*) AS c FROM intel " +
        s"WHERE CAST(time AS DOUBLE) >= $lo AND CAST(time AS DOUBLE) < $hi",
      "intel" -> intel)
    val row = sparkAgg.collect()(0)
    assert(math.abs(syn.answer(l.bounds, Agg.Sum).value - row.getDouble(0)) <
             1e-6 * (1 + row.getDouble(0).abs))
    assert(syn.answer(l.bounds, Agg.Count).value == row.getLong(1).toDouble)
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"random range queries have small median relative error ($agg)") {
      val syn = buildAdp(k = 32, rate = 0.05).synopsis
      val rnd = new scala.util.Random(10)
      val cs  = gt.coords(0).sorted
      val errs = Seq.fill(60) {
        val i = rnd.nextInt(cs.length / 2)
        val j = math.min(cs.length - 1, i + cs.length / 10 + rnd.nextInt(cs.length / 2))
        Rect.range(cs(i), Math.nextUp(cs(j)))
      }.flatMap { q =>
        val truth = gt.answer(q, agg)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, agg).value - truth) / math.abs(truth))
      }.sorted
      assert(errs(errs.length / 2) < 0.05, s"median RE ${errs(errs.length / 2)}")
    }
  }

  test("multi-dimensional KdGreedy build: invariants and sane answers") {
    val nyc  = Datasets.nycLite(spark, sf = 0.002, seed = 2).persist()
    try {
      val cols = Seq("pickup_time", "pickup_date")
      val gt2  = GroundTruth.collect(nyc, cols, "trip_distance")
      val r = PassBuilder.build(nyc, cols, "trip_distance",
        PassBuilder.KdGreedy(32, Agg.Sum), PassBuilder.Rate(0.08), optSampleSize = 2000, seed = 11)
      val syn = r.synopsis
      assert(TreeInvariants.violations(syn.root).isEmpty)
      assert(syn.root.count == gt2.n)
      val rnd = new scala.util.Random(12)
      val errs = Seq.fill(30) {
        val lo0 = rnd.nextDouble() * 40000; val lo1 = rnd.nextDouble() * 10
        Rect(Array(lo0, lo1), Array(lo0 + 25000 + rnd.nextDouble() * 20000, lo1 + 8 + rnd.nextDouble() * 12))
      }.flatMap { q =>
        val truth = gt2.answer(q, Agg.Sum)
        if (truth.isNaN || truth == 0) None
        else Some(math.abs(syn.answer(q, Agg.Sum).value - truth) / math.abs(truth))
      }.sorted
      assert(errs.nonEmpty && errs(errs.length / 2) < 0.2, s"median RE ${errs.lift(errs.length / 2)}")
    } finally nyc.unpersist()
  }

  // ties the Spark-side leaf routing to the bounds that MCF reads
  test("every leaf count equals the exact count of the leaf bounds (Adp1D and KdGreedy)") {
    for (l <- buildAdp().synopsis.leaves)
      assert(l.count == gt.count(l.bounds), s"Adp1D leaf ${l.bounds}")
    val nyc = Datasets.nycLite(spark, sf = 0.002, seed = 2).persist()
    try {
      val cols = Seq("pickup_time", "pickup_date")
      val gt2  = GroundTruth.collect(nyc, cols, "trip_distance")
      val syn  = PassBuilder.build(nyc, cols, "trip_distance",
        PassBuilder.KdGreedy(32, Agg.Sum), PassBuilder.Rate(0.02), optSampleSize = 2000, seed = 13).synopsis
      assert(syn.leaves.length > 8)
      for (l <- syn.leaves) assert(l.count == gt2.count(l.bounds), s"KdGreedy leaf ${l.bounds}")
    } finally nyc.unpersist()
  }

  private def sortedByDim0(s: LeafSample): Boolean =
    (1 until s.size).forall(i => java.lang.Double.compare(s.columns(0)(i - 1), s.columns(0)(i)) <= 0)

  test("every leaf sample is sorted by dimension 0 (Adp1D and KdGreedy)") {
    val adp = buildAdp().synopsis
    assert(adp.storedSamples > 100)
    for (id <- adp.samples.indices) assert(sortedByDim0(adp.samples(id)), s"Adp1D leaf $id")
    val nyc = Datasets.nycLite(spark, sf = 0.002, seed = 2).persist()
    try {
      val syn = PassBuilder.build(nyc, Seq("pickup_time", "pickup_date"), "trip_distance",
        PassBuilder.KdGreedy(32, Agg.Sum), PassBuilder.Rate(0.08), optSampleSize = 2000, seed = 11).synopsis
      assert(syn.storedSamples > 100)
      for (id <- syn.samples.indices) assert(sortedByDim0(syn.samples(id)), s"KdGreedy leaf $id")
    } finally nyc.unpersist()
  }

  test("a Java-serialized synopsis answers bit-identically to the original") {
    val syn = buildAdp(k = 32).synopsis
    val bytes = new java.io.ByteArrayOutputStream()
    val out   = new java.io.ObjectOutputStream(bytes)
    out.writeObject(syn); out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[PassSynopsis]
    val rnd = new scala.util.Random(21)
    val cs  = gt.coords(0).sorted
    val qs  = Seq.fill(40) {
      val i = rnd.nextInt(cs.length); val j = math.min(cs.length - 1, i + rnd.nextInt(cs.length / 3))
      Rect.range(cs(i), cs(j))
    } :+ syn.leaves(3).bounds :+ Rect.range(Double.NegativeInfinity, Double.PositiveInfinity)
    def bits(e: Estimate): Seq[Long] =
      Seq(e.value, e.ciHalf, e.lb, e.ub, e.skipRate).map(java.lang.Double.doubleToLongBits) :+ e.processedSamples
    for (q <- qs; agg <- Agg.all)
      assert(bits(copy.answer(q, agg)) == bits(syn.answer(q, agg)), s"$agg q=$q")
  }

  test("build reports cost accounting") {
    val r = buildAdp(k = 8)
    assert(r.buildMillis >= 0)
    assert(r.optSampleSize == math.min(1500, gt.n))
    assert(r.droppedRows == 0)
  }

  /** Every leaf's exact aggregates against `truth` over the leaf bounds. */
  private def assertLeavesExact(syn: PassSynopsis, truth: GroundTruth, what: String): Unit =
    for (l <- syn.leaves) {
      val (sm, cnt, mn, mx) = truth.stats(l.bounds)
      assert(l.count == cnt, s"$what leaf ${l.bounds} count")
      if (cnt > 0) assert(l.min == mn && l.max == mx, s"$what leaf ${l.bounds} min/max")
      assert(math.abs(l.sum - sm) <= 1e-12 * math.abs(sm), s"$what leaf ${l.bounds} sum ${l.sum} vs $sm")
    }

  test("every leaf's count, min, max and sum equal the exact aggregates of its bounds") {
    assertLeavesExact(buildAdp().synopsis, gt, "Adp1D")
    val nyc = Datasets.nycLite(spark, sf = 0.002, seed = 2).persist()
    try {
      val cols = Seq("pickup_time", "pickup_date")
      val syn  = PassBuilder.build(nyc, cols, "trip_distance",
        PassBuilder.KdGreedy(32, Agg.Sum), PassBuilder.TotalBudget(1000), optSampleSize = 2000, seed = 13).synopsis
      assertLeavesExact(syn, GroundTruth.collect(nyc, cols, "trip_distance"), "KdGreedy")
    } finally nyc.unpersist()
  }

  test("two builds with the same seed give bit-identical synopses") {
    def fingerprint(syn: PassSynopsis): Seq[Long] = {
      def bits(xs: Seq[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits)
      syn.root.preorder.toSeq.flatMap { n =>
        bits((n.bounds.lo ++ n.bounds.hi).toSeq ++ Seq(n.sum, n.min, n.max)) ++ Seq(n.count, n.leafId.toLong)
      } ++ syn.samples.toSeq.flatMap(s => bits((s.values ++ s.columns.flatten).toSeq) :+ s.size.toLong)
    }
    for (alloc <- Seq(PassBuilder.Rate(0.05), PassBuilder.TotalBudget(600))) {
      def once() = PassBuilder.build(intel, Seq("time"), "light", PassBuilder.Adp1D(16, Agg.Sum), alloc,
        optSampleSize = 1500, seed = 5).synopsis
      val (a, b) = (once(), once())
      assert(a.storedSamples > 100)
      assert(fingerprint(a) == fingerprint(b), s"$alloc")
    }
    val other = PassBuilder.build(intel, Seq("time"), "light", PassBuilder.Adp1D(16, Agg.Sum),
      PassBuilder.Rate(0.05), optSampleSize = 1500, seed = 6).synopsis
    assert(fingerprint(other) != fingerprint(buildAdp(k = 16).synopsis))
  }

  test("rows with a NaN or null coordinate or a NaN or null value are dropped and counted") {
    import spark.implicits._
    val rnd   = new scala.util.Random(4)
    val clean = Seq.tabulate(3000)(i =>
      (Option(i * 0.37 % 1000), Option(rnd.nextDouble() * 10), Option(i % 7 * 1.0)))
    val dirty = Seq[(Option[Double], Option[Double], Option[Double])](
      (Some(Double.NaN), Some(1.0), Some(5.0)), (None, Some(2.0), Some(5.0)), (Some(10.0), None, Some(5.0)),
      (Some(20.0), Some(Double.NaN), Some(5.0)), (Some(30.0), Some(3.0), None), (Some(40.0), Some(4.0), None),
      (Some(50.0), Some(5.0), Some(Double.NaN)))
    val rows  = rnd.shuffle(clean ++ dirty).toDF("x", "y", "v").persist()
    try {
      val cleanDf = rows.na.drop().filter(!isnan(col("x")) && !isnan(col("y")) && !isnan(col("v")))
      assert(cleanDf.count() == 3000)
      // 1-D over x: NaN or null x, and NaN or null v, are dropped; a NaN or null y is not read
      val r1 = PassBuilder.build(rows, Seq("x"), "v", PassBuilder.EqualDepth1D(8), PassBuilder.PerLeaf(20),
        optSampleSize = 500, seed = 3)
      assert(r1.droppedRows == 5)
      val gt1 = GroundTruth.collect(rows.na.drop(Seq("x", "v")).filter(!isnan(col("x")) && !isnan(col("v"))),
        Seq("x"), "v")
      assert(r1.synopsis.root.count == 3002 && gt1.n == 3002)
      assertLeavesExact(r1.synopsis, gt1, "1-D")
      // 2-D over (x, y): every dirty row is dropped
      val r2 = PassBuilder.build(rows, Seq("x", "y"), "v", PassBuilder.KdGreedy(16, Agg.Sum),
        PassBuilder.Rate(0.1), optSampleSize = 500, seed = 3)
      assert(r2.droppedRows == 7 && r2.synopsis.totalRows == 3000)
      assertLeavesExact(r2.synopsis, GroundTruth.collect(cleanDf, Seq("x", "y"), "v"), "2-D")
      for (s <- r2.synopsis.samples; i <- 0 until s.size)
        assert(!s.columns.exists(_(i).isNaN) && !s.values(i).isNaN)
    } finally rows.unpersist()
  }

  test("a partition count below 1 is rejected with a clear error") {
    val builds: Seq[(String, () => Any)] = Seq(
      "Adp1D"        -> (() => PassBuilder.Adp1D(0)),
      "EqualDepth1D" -> (() => PassBuilder.EqualDepth1D(0)),
      "KdGreedy"     -> (() => PassBuilder.KdGreedy(0)),
      "KdBalanced"   -> (() => PassBuilder.KdBalanced(-1)),
      "ST"           -> (() => StratifiedSampling.build(null, Seq("x"), "v", strata = 0, totalSamples = 10)),
      "AQP++"        -> (() => AqpPlusPlus.build(null, Seq("x"), "v", partitions = 0, totalSamples = 10)),
    )
    for ((name, build) <- builds) {
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("partition count"), s"$name: ${e.getMessage}")
    }
  }

  test("empty input is rejected") {
    val empty = intel.filter(col("time") < -1)
    intercept[IllegalArgumentException] {
      PassBuilder.build(empty, Seq("time"), "light",
        PassBuilder.EqualDepth1D(4), PassBuilder.PerLeaf(1))
    }
  }
}

package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.bench.GroundTruth
import repro.data.Datasets

/** End-to-end Spark construction tests: the groupBy/agg partition statistics
  * and sampleBy stratified samples must be internally consistent, DuckDB-
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
    assert(PartitionTree.invariantViolations(syn.root).isEmpty)
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
    for (l <- syn.leaves; i <- 0 until syn.samples(l.leafId).size)
      assert(l.bounds.contains(syn.samples(l.leafId).coords(i)),
             s"sample outside leaf ${l.bounds}")
  }

  test("Rate allocation draws approximately rate * N_i per leaf") {
    val syn = buildAdp(rate = 0.10).synopsis
    for (l <- syn.leaves if l.count > 200) {
      val got = syn.samples(l.leafId).size.toDouble
      val want = 0.10 * l.count
      assert(math.abs(got - want) < want * 0.5 + 10, s"leaf ${l.leafId}: $got vs $want")
    }
  }

  test("TotalBudget allocation splits the budget roughly equally") {
    val r = PassBuilder.build(intel, Seq("time"), "light",
      PassBuilder.EqualDepth1D(8), PassBuilder.TotalBudget(800), seed = 6)
    val sizes = r.synopsis.samples.map(_.size)
    assert(sizes.sum > 400 && sizes.sum < 1400, s"total ${sizes.sum}")
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
      assert(PartitionTree.invariantViolations(syn.root).isEmpty)
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
    (1 until s.size).forall(i => java.lang.Double.compare(s.coords(i - 1)(0), s.coords(i)(0)) <= 0)

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
    assert(r.optSampleSize > 500)
  }

  test("empty input is rejected") {
    val empty = intel.filter(col("time") < -1)
    intercept[IllegalArgumentException] {
      PassBuilder.build(empty, Seq("time"), "light",
        PassBuilder.EqualDepth1D(4), PassBuilder.PerLeaf(1))
    }
  }
}

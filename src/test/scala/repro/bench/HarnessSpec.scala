package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Agg, Estimate, Rect, Synopsis}

/** Pure tests of the benchmark harness arithmetic and of `Tables.measure`. */
class HarnessSpec extends AnyFunSuite {

  private val gt = {
    val cs = Array.tabulate(1000)(_.toDouble)
    new GroundTruth(Array(cs), cs.map(_ * 2))
  }
  private val queries = Array.tabulate(20)(i => Rect.range(i * 40.0, i * 40.0 + 100.0))

  test("median of odd/even/empty sequences") {
    assert(Harness.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Harness.median(Seq(1.0, 2.0, 3.0, 4.0)) == 2.5)
    assert(Harness.median(Seq.empty).isNaN)
    assert(Harness.median(Seq(Double.NaN, 5.0)) == 5.0)
  }

  test("perfect estimator scores zero error and full coverage") {
    val m = Harness.evaluate((q, a) => Estimate(gt.answer(q, a), 0.0), gt, queries, Agg.Sum)
    assert(m.medianRelErr == 0.0)
    assert(m.ciCoverage == 1.0)
    assert(m.medianCiRatio == 0.0)
  }

  test("biased estimator scores its bias") {
    val m = Harness.evaluate((q, a) => Estimate(gt.answer(q, a) * 1.10, 0.0), gt, queries, Agg.Sum)
    assert(math.abs(m.medianRelErr - 0.10) < 1e-9)
    assert(m.ciCoverage == 0.0)
  }

  test("NaN CIs are excluded from coverage, not counted against it") {
    val m = Harness.evaluate((q, a) => Estimate(gt.answer(q, a), Double.NaN), gt, queries, Agg.Sum)
    assert(m.ciCoverage.isNaN)
    assert(m.medianRelErr == 0.0)
  }

  test("latency, skip rate and processed-samples are averaged") {
    val m = Harness.evaluate(
      (q, a) => Estimate(gt.answer(q, a), 0.0, processedSamples = 7, skipRate = 0.5),
      gt, queries, Agg.Sum)
    assert(m.meanProcessed == 7.0)
    assert(m.meanSkipRate == 0.5)
    assert(m.meanLatencyMs >= 0.0 && m.maxLatencyMs >= m.meanLatencyMs)
  }

  test("zero-truth queries are excluded from relative error") {
    val zeroGt = new GroundTruth(Array(Array.tabulate(100)(_.toDouble)), Array.fill(100)(0.0))
    val m = Harness.evaluate((_, _) => Estimate(1.0, 0.0), zeroGt,
                             Array(Rect.range(0, 50)), Agg.Sum)
    assert(m.medianRelErr.isNaN)
  }

  test("Tables.measure averages build and storage over bundles, scores every cell") {
    val other   = new GroundTruth(Array(Array.tabulate(500)(_ * 3.0)), Array.tabulate(500)(i => 1.0 + i % 7))
    val bundles = Seq(
      Tables.Bundle("A", null, Seq("x"), "v", gt, queries),
      Tables.Bundle("B", null, Seq("x"), "v", other, Array.tabulate(10)(i => Rect.range(i * 100.0, i * 100.0 + 300.0))))
    val aggs = Seq(Agg.Count, Agg.Sum, Agg.Avg)
    // exact answers from the bundle's truth; 1 and 3 MiB, built in 0.5 and 1.5 s
    val r = Tables.measure("exact", bundles, aggs) { b =>
      val mib = if (b.name == "A") 1 else 3
      val syn = new Synopsis {
        def answer(q: Rect, agg: Agg): Estimate = Estimate(b.gt.answer(q, agg), 0.0)
        def storageBytes: Long                  = mib * 1048576L
      }
      (syn, mib * 500L)
    }
    assert(r.approach == "exact")
    assert(r.buildS == 1.0 && r.storageMB == 2.0)
    assert(r.latencyMs >= 0.0 && r.maxLatencyMs >= r.latencyMs)
    assert(r.re.keySet == (for (a <- aggs; n <- Seq("A", "B")) yield (a, n)).toSet)
    assert(r.re.values.forall(_ == 0.0))
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Estimator correctness for the PASS query processor (Sec 3.3): exactness
  * when samples are complete or predicates align with partitions, statistical
  * behaviour of the CIs, deterministic hard bounds, and the Sec 3.4 rules.
  */
class SynopsisSpec extends AnyFunSuite {

  private def exact(cs: Array[Double], as: Array[Double], q: Rect, agg: Agg): Double = {
    val sel = cs.indices.filter(i => cs(i) >= q.lo(0) && cs(i) < q.hi(0)).map(as)
    agg match {
      case Agg.Sum   => sel.sum
      case Agg.Count => sel.size.toDouble
      case Agg.Avg   => if (sel.isEmpty) Double.NaN else sel.sum / sel.size
      case Agg.Min   => if (sel.isEmpty) Double.NaN else sel.min
      case Agg.Max   => if (sel.isEmpty) Double.NaN else sel.max
    }
  }

  private def randomQuery(rnd: scala.util.Random): Rect = {
    val a = rnd.nextDouble() * 100
    val b = a + 1 + rnd.nextDouble() * 50
    Rect.range(a, b)
  }

  for (seed <- 0 until 5; agg <- Agg.all) {
    test(s"full-stratum samples make every estimate exact ($agg, seed=$seed)") {
      val (cs, as) = TestSynopses.genData(400, seed)
      val syn = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), samplesPerLeaf = 0, seed = seed)
      val rnd = new scala.util.Random(seed + 50)
      for (_ <- 0 until 20) {
        val q     = randomQuery(rnd)
        val truth = exact(cs, as, q, agg)
        val est   = syn.answer(q, agg)
        if (!truth.isNaN)
          assert(math.abs(est.value - truth) < 1e-6 * (1 + truth.abs),
                 s"q=$q est=${est.value} truth=$truth")
      }
    }
  }

  for (seed <- 0 until 5; agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"partition-aligned queries are exact with tiny samples ($agg, seed=$seed)") {
      val (cs, as) = TestSynopses.genData(400, seed + 10)
      val cuts     = Array(25.0, 50.0, 75.0)
      val syn      = TestSynopses.build1D(cs, as, cuts, samplesPerLeaf = 3, seed = seed)
      // queries whose endpoints sit exactly on partition boundaries
      for (i <- 0 until cuts.length; j <- i until cuts.length) {
        val q     = Rect.range(cuts(i), cuts(j) /* empty when i==j */)
        val truth = exact(cs, as, q, agg)
        val est   = syn.answer(q, agg)
        if (!truth.isNaN) {
          assert(math.abs(est.value - truth) < 1e-6 * (1 + truth.abs), s"q=$q")
          assert(est.ciHalf == 0.0, s"aligned query must have zero CI, got ${est.ciHalf}")
          assert(est.processedSamples == 0, "aligned query must process no samples")
        }
      }
    }
  }

  test("aligned full-range query is exact and fully skipped") {
    val (cs, as) = TestSynopses.genData(300, 42)
    val syn = TestSynopses.build1D(cs, as, Array(50.0), samplesPerLeaf = 2, seed = 1)
    val q   = Rect.range(Double.NegativeInfinity, Double.PositiveInfinity)
    assert(math.abs(syn.answer(q, Agg.Sum).value - as.sum) < 1e-6 * as.sum)
    assert(syn.answer(q, Agg.Sum).skipRate == 1.0)
    assert(syn.answer(q, Agg.Count).value == cs.length.toDouble)
    assert(math.abs(syn.answer(q, Agg.Avg).value - as.sum / as.length) < 1e-9 * (1 + as.sum.abs))
    assert(syn.answer(q, Agg.Min).value == as.min)
    assert(syn.answer(q, Agg.Max).value == as.max)
  }

  for (seed <- 0 until 4; agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"hard bounds always contain the truth ($agg, seed=$seed)") {
      val (cs, values) = TestSynopses.genData(600, seed + 20)
      // non-negative values, and the same shifted to straddle 0
      for (as <- Seq(values, TestSynopses.straddleZero(values))) {
        val syn = TestSynopses.build1D(cs, as, Array(20.0, 40.0, 60.0, 80.0),
                                       samplesPerLeaf = 5, seed = seed)
        val rnd = new scala.util.Random(seed + 60)
        for (_ <- 0 until 30) {
          val q     = randomQuery(rnd)
          val truth = exact(cs, as, q, agg)
          val est   = syn.answer(q, agg)
          if (!truth.isNaN) {
            assert(est.lb <= truth + 1e-6 * (1 + truth.abs), s"q=$q lb=${est.lb} truth=$truth")
            assert(est.ub >= truth - 1e-6 * (1 + truth.abs), s"q=$q ub=${est.ub} truth=$truth")
          }
        }
      }
    }
  }

  test("MIN/MAX hard bounds bracket the truth") {
    val (cs, values) = TestSynopses.genData(600, 77)
    // non-negative values, and the same shifted to straddle 0
    for (as <- Seq(values, TestSynopses.straddleZero(values))) {
      val syn = TestSynopses.build1D(cs, as, Array(30.0, 60.0), samplesPerLeaf = 8, seed = 7)
      val rnd = new scala.util.Random(8)
      for (_ <- 0 until 25) {
        val q = randomQuery(rnd)
        val tMin = exact(cs, as, q, Agg.Min)
        val tMax = exact(cs, as, q, Agg.Max)
        if (!tMin.isNaN) {
          val eMin = syn.answer(q, Agg.Min)
          val eMax = syn.answer(q, Agg.Max)
          assert(eMin.lb <= tMin + 1e-9 && tMin <= eMin.ub + 1e-9, s"q=$q MIN")
          assert(eMax.lb <= tMax + 1e-9 && tMax <= eMax.ub + 1e-9, s"q=$q MAX")
        }
      }
    }
  }

  for (agg <- Seq(Agg.Sum, Agg.Count, Agg.Avg)) {
    test(s"99% CI covers the truth at roughly the nominal rate ($agg)") {
      val (cs, as) = TestSynopses.genData(3000, 5)
      var covered = 0; var total = 0
      for (trial <- 0 until 40) {
        val syn = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0),
                                       samplesPerLeaf = 120, seed = 1000 + trial)
        val rnd = new scala.util.Random(trial)
        for (_ <- 0 until 5) {
          val q     = randomQuery(rnd)
          val truth = exact(cs, as, q, agg)
          val est   = syn.answer(q, agg)
          if (!truth.isNaN && !est.ciHalf.isNaN && truth != 0.0) {
            total += 1
            if (math.abs(est.value - truth) <= est.ciHalf + 1e-9 * truth.abs) covered += 1
          }
        }
      }
      val rate = covered.toDouble / total
      assert(rate >= 0.90, s"coverage $rate below 0.90 across $total cases")
    }
  }

  test("AVG with no cover and no matching sampled row answers the frontier's exact average") {
    val (cs, as) = TestSynopses.genData(400, 3)
    val syn = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), samplesPerLeaf = 1, seed = 4)
    val sampled = syn.samples.flatMap(_.columns(0))
    // a narrow query around a row of leaf [25, 50) that no sampled row is near
    val c = cs.find(x => x > 30 && x < 45 && sampled.forall(s => math.abs(s - x) > 0.5)).get
    val q = Rect.range(c - 0.1, c + 0.1)
    val truth = exact(cs, as, q, Agg.Avg)
    val est   = syn.answer(q, Agg.Avg)
    assert(est.processedSamples == 1 && est.lb < est.ub)
    assert(est.lb <= est.value && est.value <= est.ub, s"value ${est.value} outside [${est.lb}, ${est.ub}]")
    assert(est.ciHalf == math.max(est.ub - est.value, est.value - est.lb))
    assert(math.abs(est.value - truth) <= est.ciHalf, s"truth $truth outside ${est.value} ± ${est.ciHalf}")
  }

  test("MIN/MAX with no covered row and no matching sampled row is NaN, bounds kept") {
    val (cs, as) = TestSynopses.genData(400, 3)
    val syn = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), samplesPerLeaf = 1, seed = 4)
    val sampled = syn.samples.flatMap(_.columns(0))
    val c    = cs.find(x => x > 30 && x < 45 && sampled.forall(s => math.abs(s - x) > 0.5)).get
    val leaf = syn.leaves(1) // [25, 50)
    // a narrow query inside that leaf, and one outside the data
    for ((q, partial) <- Seq(Rect.range(c - 0.1, c + 0.1) -> true, Rect.range(200, 300) -> false)) {
      val (mn, mx) = (syn.answer(q, Agg.Min), syn.answer(q, Agg.Max))
      assert(mn.value.isNaN && mx.value.isNaN, s"q=$q: MIN ${mn.value}, MAX ${mx.value}")
      // the observed extreme bounds one side (none observed: ±∞), the frontier's the other
      assert(mn.ub == Double.PositiveInfinity && mx.lb == Double.NegativeInfinity, s"q=$q")
      if (partial) assert(mn.lb == leaf.min && mx.ub == leaf.max, s"q=$q")
      else assert(mn.lb == Double.PositiveInfinity && mx.ub == Double.NegativeInfinity, s"q=$q")
    }
  }

  test("0-variance rule gives exact AVG value contribution with zero CI term") {
    // constant values everywhere: AVG must be exact whatever the predicate
    val n   = 500
    val cs  = Array.tabulate(n)(i => i * 100.0 / n)
    val as  = Array.fill(n)(7.0)
    val syn = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), samplesPerLeaf = 4, seed = 3)
    val rnd = new scala.util.Random(4)
    for (_ <- 0 until 20) {
      val q   = randomQuery(rnd)
      val est = syn.answer(q, Agg.Avg)
      if (!est.value.isNaN) {
        assert(math.abs(est.value - 7.0) < 1e-9)
        assert(est.ciHalf == 0.0)
      }
    }
  }

  test("0-variance rule off vs on: same value regions, rule processes pooled samples") {
    val n   = 500
    val cs  = Array.tabulate(n)(i => i * 100.0 / n)
    val as  = cs.map(c => if (c < 50) 3.0 else 10.0 + (c % 5))
    val on  = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), 40, seed = 9, zeroVarRule = true)
    val off = TestSynopses.build1D(cs, as, Array(25.0, 50.0, 75.0), 40, seed = 9, zeroVarRule = false)
    val q   = Rect.range(10.0, 60.0)
    val vOn  = on.answer(q, Agg.Avg)
    val vOff = off.answer(q, Agg.Avg)
    // both must be close to the truth; the rule must not bias the estimate
    val truth = exact(cs, as, q, Agg.Avg)
    assert(math.abs(vOn.value - truth) / truth < 0.25)
    assert(math.abs(vOff.value - truth) / truth < 0.25)
    // the constant stratum contributes no CI width under the rule
    assert(vOn.ciHalf <= vOff.ciHalf + 1e-9)
  }

  test("skip rate reflects the partially-overlapped fraction") {
    val (cs, as) = TestSynopses.genData(1000, 6)
    val syn = TestSynopses.build1D(cs, as, Array(10, 20, 30, 40, 50, 60, 70, 80, 90).map(_.toDouble),
                                   samplesPerLeaf = 5, seed = 2)
    // query [15, 85): partial leaves are [10,20) and [80,90) only
    val est = syn.answer(Rect.range(15.0, 85.0), Agg.Sum)
    val partialRows = syn.leaves.filter(l =>
      !l.bounds.disjoint(Rect.range(15.0, 85.0)) &&
        !Rect.range(15.0, 85.0).containsRect(l.bounds)).map(_.count).sum
    assert(math.abs(est.skipRate - (1.0 - partialRows.toDouble / 1000)) < 1e-9)
    assert(est.processedSamples == 10, "two partial leaves at 5 samples each")
  }

  test("empty predicate returns zero SUM/COUNT with zero CI") {
    val (cs, as) = TestSynopses.genData(200, 8)
    val syn = TestSynopses.build1D(cs, as, Array(50.0), samplesPerLeaf = 5, seed = 3)
    val est = syn.answer(Rect.range(200.0, 300.0), Agg.Sum)
    assert(est.value == 0.0 && est.ciHalf == 0.0)
    assert(syn.answer(Rect.range(200.0, 300.0), Agg.Count).value == 0.0)
  }

  test("storage accounting is positive and grows with sample count") {
    val (cs, as) = TestSynopses.genData(400, 9)
    val small = TestSynopses.build1D(cs, as, Array(50.0), samplesPerLeaf = 5, seed = 1)
    val big   = TestSynopses.build1D(cs, as, Array(50.0), samplesPerLeaf = 50, seed = 1)
    assert(small.storageBytes > 0)
    assert(big.storageBytes > small.storageBytes)
    assert(big.storedSamples > small.storedSamples)
  }
}

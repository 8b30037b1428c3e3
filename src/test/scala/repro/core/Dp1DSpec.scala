package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests the DP partitioners: exactness of the naive DP against exhaustive
  * enumeration, agreement of the binary-search DP, the ADP approximation
  * bounds, and the COUNT closed form.
  */
class Dp1DSpec extends AnyFunSuite {

  private def randSample(n: Int, seed: Long): SortedSample1D = {
    val rnd = new scala.util.Random(seed)
    val cs  = Array.fill(n)(rnd.nextDouble() * 100)
    val as  = Array.fill(n)(math.exp(rnd.nextGaussian()))
    SortedSample1D(cs, as)
  }

  /** True max variance of a partitioning, by brute force per bucket. */
  private def trueValue(s: SortedSample1D, bounds: Array[Int], agg: Agg, minLen: Int): Double =
    (0 until bounds.length - 1).map { j =>
      ExactDp.brute(s, agg, bounds(j), bounds(j + 1), minLen)
    }.max

  /** Minimum achievable max-variance over ALL contiguous partitionings, by
    * exhaustive enumeration (small m, small k only).
    */
  private def exhaustiveOpt(s: SortedSample1D, k: Int, agg: Agg, minLen: Int): Double = {
    var best = Double.PositiveInfinity
    def rec(start: Int, left: Int, acc: Double): Unit = {
      if (acc >= best) return
      if (left == 1) { best = math.min(best, math.max(acc, ExactDp.brute(s, agg, start, s.n, minLen))) }
      else {
        for (cut <- start + 1 to s.n - left + 1) {
          rec(cut, left - 1, math.max(acc, ExactDp.brute(s, agg, start, cut, minLen)))
        }
      }
    }
    rec(0, k, 0.0)
    best
  }

  for (seed <- 0 until 5; agg <- Seq(Agg.Sum, Agg.Avg)) {
    test(s"naive DP matches exhaustive optimum ($agg, seed=$seed)") {
      val s = randSample(16, seed)
      val k = 3
      val r = ExactDp.naive(s, k, agg)
      assert(math.abs(r.value - exhaustiveOpt(s, k, agg, 1)) < 1e-9)
    }
  }

  for (seed <- 0 until 6; agg <- Seq(Agg.Sum, Agg.Avg, Agg.Count)) {
    test(s"fast DP (binary search) achieves the naive DP value ($agg, seed=$seed)") {
      val s = randSample(28, seed + 40)
      val k = 4
      val naive = ExactDp.naive(s, k, agg)
      val fast  = ExactDp.fast(s, k, agg)
      assert(math.abs(fast.value - naive.value) < 1e-9,
             s"fast=${fast.value} naive=${naive.value}")
    }
  }

  test("DP boundaries are monotone and span the sample") {
    val s = randSample(40, 9)
    for (k <- Seq(1, 2, 5, 8)) {
      val r = ExactDp.fast(s, k, Agg.Sum)
      assert(r.sampleBounds.head == 0 && r.sampleBounds.last == s.n)
      assert(r.sampleBounds.sliding(2).forall(p => p(0) <= p(1)))
      assert(r.cuts.length == r.k - 1)
      assert(PartitionTree.build1D(r.cuts, Rect.range(0, 100)).leaves.size == r.k)
    }
  }

  test("k larger than the sample clamps instead of crashing") {
    val s = randSample(5, 3)
    val r = Dp1D.adp(s, 50, Agg.Sum)
    assert(r.k <= 5)
  }

  for (seed <- 0 until 6) {
    test(s"ADP(SUM) achieves the Lemma A.6 variance bound vs optimum (seed=$seed)") {
      val s   = randSample(36, seed + 100)
      val k   = 4
      val adp = Dp1D.adp(s, k, Agg.Sum)
      val opt = exhaustiveOpt(s, k, Agg.Sum, 1)
      val achieved = trueValue(s, adp.sampleBounds, Agg.Sum, 1)
      // disc oracle is a 4-approx; the DP then loses at most that factor again
      // in the worst case — allow 16x on variance with a small fp cushion.
      assert(achieved <= 16.0 * opt + 1e-9, s"achieved=$achieved opt=$opt")
    }
  }

  for (seed <- 0 until 6) {
    test(s"ADP(AVG) achieves the variance bound vs optimum (seed=$seed)") {
      // Appendix A.4 convention: partitions with < 2δm samples are treated as
      // zero-variance ("because of the small number of samples"), so score
      // both the ADP result and the optimum under that same convention.
      val s      = randSample(36, seed + 200)
      val k      = 3
      val deltaM = 3
      def value(bounds: Array[Int]): Double =
        (0 until bounds.length - 1).map { j =>
          if (bounds(j + 1) - bounds(j) < 2 * deltaM) 0.0
          else ExactDp.brute(s, Agg.Avg, bounds(j), bounds(j + 1), deltaM)
        }.max
      val adp = Dp1D.adp(s, k, Agg.Avg, deltaM)
      // exhaustive optimum under the same convention
      var opt = Double.PositiveInfinity
      def rec(start: Int, left: Int, acc: Double): Unit = {
        if (acc >= opt) return
        if (left == 1) opt = math.min(opt, math.max(acc, value(Array(start, s.n))))
        else
          for (cut <- start + 1 to s.n - left + 1)
            rec(cut, left - 1, math.max(acc, value(Array(start, cut))))
      }
      rec(0, k, 0.0)
      val achieved = value(adp.sampleBounds)
      assert(achieved <= 16.0 * opt + 1e-9, s"achieved=$achieved opt=$opt")
    }
  }

  test("equalDepth buckets differ in size by at most one") {
    val s = randSample(97, 5)
    for (k <- Seq(2, 7, 16)) {
      val r     = Dp1D.equalDepth(s, k)
      val sizes = (0 until r.k).map(j => r.sampleBounds(j + 1) - r.sampleBounds(j))
      assert(sizes.max - sizes.min <= 1, s"k=$k sizes=$sizes")
    }
  }

  test("COUNT: equal-depth partitioning is optimal (Lemma A.1)") {
    for (seed <- 0 until 4) {
      val s  = randSample(20, seed + 300)
      val k  = 3
      val eq = Dp1D.equalDepth(s, k)
      val opt = exhaustiveOpt(s, k, Agg.Count, 1)
      val achieved = trueValue(s, eq.sampleBounds, Agg.Count, 1)
      assert(achieved <= opt + 1e-9, s"achieved=$achieved opt=$opt")
    }
  }

  test("adp COUNT short-circuits to equal depth") {
    val s = randSample(50, 8)
    val a = Dp1D.adp(s, 5, Agg.Count)
    val e = Dp1D.equalDepth(s, 5)
    assert(a.sampleBounds.toSeq == e.sampleBounds.toSeq)
  }

  test("ADP beats equal-depth on the adversarial flat-then-noisy profile") {
    // 80% zeros then a high-variance tail (the Sec 5.3 construction): the DP
    // must concentrate buckets on the tail.
    val n   = 200
    val rnd = new scala.util.Random(11)
    val cs  = Array.tabulate(n)(_.toDouble)
    val as  = Array.tabulate(n)(i => if (i < 160) 0.0 else 500.0 + rnd.nextGaussian() * 100)
    val s   = Presorted(cs, as)
    val k   = 8
    val adpV = trueValue(s, Dp1D.adp(s, k, Agg.Sum).sampleBounds, Agg.Sum, 1)
    val eqV  = trueValue(s, Dp1D.equalDepth(s, k).sampleBounds, Agg.Sum, 1)
    assert(adpV < eqV, s"adp=$adpV eq=$eqV")
  }

  test("unsupported aggregate is rejected") {
    val s = randSample(10, 1)
    intercept[IllegalArgumentException] { Dp1D.adp(s, 2, Agg.Min) }
  }

  /** SUM and AVG oracles over `s` as `Dp1D.adp` builds them for `k` buckets. */
  private def oracles(s: SortedSample1D, k: Int): Seq[(String, (Int, Int) => Double)] = {
    val idx = new AvgWindowIndex(s, math.max(4, s.n / (4 * math.max(1, k))))
    Seq("SUM" -> ((p1, p2) => MaxVar.discSum(s, p1, p2)), "AVG" -> ((p1, p2) => idx.maxAvgVar(p1, p2)))
  }

  private def bitsOf(p: Dp1D.Partitioning1D): (Seq[Int], Seq[Long], Long) =
    (p.sampleBounds.toSeq, p.cuts.toSeq.map(java.lang.Double.doubleToRawLongBits),
     java.lang.Double.doubleToRawLongBits(p.value))

  for (m <- Seq(0, 1, 5, 257, 4096); dup <- Seq(false, true)) {
    test(s"parallel DP rows are bit-equal to the sequential loop (m=$m, duplicates=$dup)") {
      val rnd = new scala.util.Random(m * 2 + (if (dup) 1 else 0))
      // with duplicates: 12 distinct coordinates, and values in 4 ties
      val cs = Array.fill(m)(if (dup) rnd.nextInt(12).toDouble else rnd.nextDouble() * 100)
      val as = Array.fill(m)(if (dup) rnd.nextInt(4).toDouble else math.exp(rnd.nextGaussian()))
      val s  = SortedSample1D(cs, as)
      for (k <- Seq(1, 2, 7, 64, m + 1); (name, maxVar) <- oracles(s, k))
        assert(bitsOf(Dp1D.dp(s, k, maxVar)) == bitsOf(ExactDp.sequential(s, k, maxVar, binarySearch = true)),
               s"$name k=$k")
    }
  }
}

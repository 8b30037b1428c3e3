package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests the discretized max-variance oracles against the brute-force maxima,
  * checking the Lemma A.3 / A.5 approximation guarantees empirically.
  */
class MaxVarSpec extends AnyFunSuite {

  private def randSample(n: Int, seed: Long, heavyTail: Boolean = false): SortedSample1D = {
    val rnd = new scala.util.Random(seed)
    val cs  = Array.fill(n)(rnd.nextDouble() * 100)
    val as =
      if (heavyTail) Array.fill(n)(math.exp(rnd.nextGaussian() * 1.5))
      else Array.fill(n)(rnd.nextDouble() * 10)
    SortedSample1D(cs, as)
  }

  test("brute max variance on a tiny hand example") {
    val s = Presorted(Array(0.0, 1.0, 2.0), Array(0.0, 0.0, 9.0))
    // best SUM query is {9}: V = 81 − 81/3 = 54
    assert(math.abs(ExactDp.brute(s, Agg.Sum, 0, 3) - 54.0) < 1e-9)
  }

  test("countExact equals brute-force COUNT maximum") {
    for (n <- Seq(2, 3, 5, 8, 13, 40)) {
      val s = Presorted(Array.tabulate(n)(_.toDouble), Array.fill(n)(1.0))
      assert(math.abs(MaxVar.countExact(n) - ExactDp.brute(s, Agg.Count, 0, n)) < 1e-9,
             s"n=$n")
    }
    assert(MaxVar.countExact(0) == 0.0)
    assert(MaxVar.countExact(1) == 0.0)
  }

  for (seed <- 0 until 10; heavy <- Seq(false, true)) {
    test(s"discSum is within [brute/4, brute] (seed=$seed heavy=$heavy)") {
      val s   = randSample(60, seed, heavy)
      val rnd = new scala.util.Random(seed + 77)
      for (_ <- 0 until 10) {
        val p1 = rnd.nextInt(40)
        val p2 = p1 + 4 + rnd.nextInt(20)
        val brute = ExactDp.brute(s, Agg.Sum, p1, p2)
        val disc  = MaxVar.discSum(s, p1, p2)
        assert(disc <= brute + 1e-9, s"disc must be a realizable query variance [$p1,$p2)")
        assert(disc >= brute / 4 - 1e-9, s"Lemma A.3 bound violated at [$p1,$p2)")
      }
    }
  }

  for (seed <- 0 until 10) {
    test(s"AvgWindowIndex is within [brute/4, brute] over length>=δm queries (seed=$seed)") {
      val s      = randSample(80, seed + 500, heavyTail = seed % 2 == 0)
      val deltaM = 5
      val idx    = new AvgWindowIndex(s, deltaM)
      val rnd    = new scala.util.Random(seed + 7)
      for (_ <- 0 until 8) {
        val p1 = rnd.nextInt(40)
        val p2 = p1 + 2 * deltaM + rnd.nextInt(30)
        val brute = ExactDp.brute(s, Agg.Avg, p1, p2, minLen = deltaM)
        val disc  = idx.maxAvgVar(p1, p2)
        assert(disc <= brute + 1e-9, s"[$p1,$p2): disc=$disc brute=$brute")
        assert(disc >= brute / 4 - 1e-9, s"Lemma A.5 bound violated at [$p1,$p2)")
      }
    }
  }

  test("AvgWindowIndex returns 0 for partitions smaller than 2δm") {
    val s   = randSample(30, 1)
    val idx = new AvgWindowIndex(s, 8)
    assert(idx.maxAvgVar(0, 15) == 0.0)
    assert(idx.maxAvgVar(3, 10) == 0.0)
  }

  test("discSum of singleton / empty partitions is 0") {
    val s = randSample(10, 2)
    assert(MaxVar.discSum(s, 3, 4) == 0.0)
    assert(MaxVar.discSum(s, 3, 3) == 0.0)
  }

  test("Lemma A.4 empirically: max-variance AVG query has < 2δm samples") {
    for (seed <- 0 until 5) {
      val s      = randSample(50, seed + 900, heavyTail = true)
      val deltaM = 4
      val ni     = s.n
      // brute-force the argmax over all queries with >= deltaM samples
      var bestLen = -1; var bestV = -1.0
      for (q1 <- 0 until ni; q2 <- q1 + deltaM to ni) {
        val v = s.vAvg(q1, q2, ni)
        if (v > bestV) { bestV = v; bestLen = q2 - q1 }
      }
      assert(bestLen < 2 * deltaM, s"seed=$seed: argmax length $bestLen >= ${2 * deltaM}")
    }
  }
}

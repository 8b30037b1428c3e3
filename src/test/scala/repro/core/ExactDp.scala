package repro.core

/** The exact 1-D partitioning DPs, the tests' oracles for the ADP: the
  * brute-force max-variance oracle, and `Dp1D.dp` over it with a linear or a
  * binary-searched split scan.
  */
object ExactDp {

  /** Exact maximum variance over every query `[q1,q2) ⊆ [p1,p2)` with at least
    * `minLen` samples. O((p2-p1)²).
    */
  def brute(s: SortedSample1D, agg: Agg, p1: Int, p2: Int, minLen: Int = 1): Double = {
    val ni = p2 - p1
    var best = 0.0
    var q1   = p1
    while (q1 < p2) {
      var q2 = q1 + math.max(1, minLen)
      while (q2 <= p2) {
        best = math.max(best, s.variance(agg, q1, q2, ni))
        q2 += 1
      }
      q1 += 1
    }
    best
  }

  /** Strawman exact DP: brute-force oracle, linear split scan. O(k·m⁴). */
  def naive(s: SortedSample1D, k: Int, agg: Agg, minLen: Int = 1): Dp1D.Partitioning1D =
    Dp1D.dp(s, k, (p1, p2) => brute(s, agg, p1, p2, minLen), binarySearch = false)

  /** Exact oracle with the monotone binary search over split points. O(k·m³·log m). */
  def fast(s: SortedSample1D, k: Int, agg: Agg, minLen: Int = 1): Dp1D.Partitioning1D =
    Dp1D.dp(s, k, (p1, p2) => brute(s, agg, p1, p2, minLen), binarySearch = true)
}

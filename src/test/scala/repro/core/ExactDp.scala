package repro.core

/** The exact 1-D partitioning DPs, the tests' oracles for the ADP: the
  * brute-force max-variance oracle, the DP over it with a linear or a
  * binary-searched split scan, and `Dp1D.dp`'s DP as one sequential loop.
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
    sequential(s, k, (p1, p2) => brute(s, agg, p1, p2, minLen), binarySearch = false)

  /** Exact oracle with the monotone binary search over split points. O(k·m³·log m). */
  def fast(s: SortedSample1D, k: Int, agg: Agg, minLen: Int = 1): Dp1D.Partitioning1D =
    Dp1D.dp(s, k, (p1, p2) => brute(s, agg, p1, p2, minLen))

  /** `Dp1D.dp` with each DP row filled by one sequential loop: the oracle for
    * its parallel rows, which must give bit-equal bounds and value. With
    * `binarySearch = false` each entry scans every split point instead.
    */
  def sequential(s: SortedSample1D, k0: Int, maxVar: (Int, Int) => Double,
                 binarySearch: Boolean): Dp1D.Partitioning1D = {
    val m = s.n
    val k = math.min(k0, math.max(1, m))
    // prev(i) = optimal value over first i samples with j-1 buckets
    var prev   = Array.tabulate(m + 1)(i => maxVar(0, i))
    val choice = Array.ofDim[Int](k + 1, m + 1)
    var j = 2
    while (j <= k) {
      val cur = new Array[Double](m + 1)
      java.util.Arrays.fill(cur, Double.PositiveInfinity)
      var i = j
      while (i <= m) {
        var bestV = Double.PositiveInfinity
        var bestH = j - 1
        def consider(h: Int): Unit = {
          val v = math.max(prev(h), maxVar(h, i))
          if (v < bestV) { bestV = v; bestH = h }
        }
        if (!binarySearch) {
          var h = j - 1
          while (h <= i - 1) { consider(h); h += 1 }
        } else {
          var lo = j - 1; var hi = i - 1
          while (lo < hi) {
            val mid = (lo + hi) >>> 1
            if (prev(mid) < maxVar(mid, i)) lo = mid + 1 else hi = mid
          }
          var h = math.max(j - 1, lo - 2)
          while (h <= math.min(i - 1, lo + 2)) { consider(h); h += 1 }
        }
        cur(i) = bestV
        choice(j)(i) = bestH
        i += 1
      }
      prev = cur
      j += 1
    }
    val bounds = new Array[Int](k + 1)
    bounds(k) = m
    var jj = k
    while (jj >= 2) { bounds(jj - 1) = choice(jj)(bounds(jj)); jj -= 1 }
    Dp1D.Partitioning1D(bounds, bounds.slice(1, k).map(s.cs), prev(m))
  }
}

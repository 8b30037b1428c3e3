package repro.core

import java.util.stream.IntStream

/** 1-D partitioning optimizers (Sec 4.3 / Appendix A.5).
  *
  * All variants minimize, over partitionings into `k` contiguous buckets of the
  * sorted optimization sample, the maximum single-partition query variance —
  * the surrogate objective justified by Lemma 4.1:
  *
  *  - [[Dp1D.adp]]     discretized oracle, monotone binsearch — O(k·m·log m)
  *                      (the `**` algorithm used in the paper's experiments)
  *  - [[Dp1D.equalDepth]] equal-count buckets — optimal for COUNT (Lemma A.1)
  *
  * The exact DPs over the brute-force oracle (O(k·m⁴) with a linear split
  * scan, O(k·m³·log m) with the binary search) are the tests' oracles.
  */
object Dp1D {

  /** A flat 1-D partitioning of the optimization sample.
    *
    * @param sampleBounds k+1 sample indices, `0 = b(0) <= ... <= b(k) = m`;
    *                     bucket j spans sample positions `[b(j), b(j+1))`
    * @param cuts         the k−1 interior predicate-value cut points; bucket j
    *                     holds tuples with `cuts(j-1) <= c < cuts(j)` (the outer
    *                     buckets are open-ended)
    * @param value        the optimized max single-partition variance
    */
  final case class Partitioning1D(sampleBounds: Array[Int], cuts: Array[Double], value: Double) {
    def k: Int = sampleBounds.length - 1
  }

  private def toPartitioning(s: SortedSample1D, bounds: Array[Int], value: Double): Partitioning1D =
    Partitioning1D(bounds, bounds.slice(1, bounds.length - 1).map(s.cs), value)

  /** Generic DP over `maxVar(p1, p2)` (max variance of any query inside sample
    * range `[p1,p2)`). The inner split search is a binary search by the
    * monotonicity argument of Sec 4.3 (A[·, j−1] nondecreasing, M(·, i)
    * nonincreasing), which cuts a factor of m to log m.
    *
    * For each bucket count j, the entries i = j..m of the DP row read only
    * row j−1 and write only their own slot, so they run in parallel on the
    * JVM's common fork-join pool; `maxVar` must be safe to call from several
    * threads. Each entry is computed exactly as by a sequential loop, so the
    * result does not depend on the schedule.
    */
  def dp(s: SortedSample1D, k0: Int, maxVar: (Int, Int) => Double): Partitioning1D = {
    val m = s.n
    val k = math.min(k0, math.max(1, m))
    // row(i) = optimal value over the first i samples with j buckets, from j = 1
    var row    = Array.tabulate(m + 1)(i => maxVar(0, i))
    val choice = Array.ofDim[Int](k + 1, m + 1)
    for (j <- 2 to k) {
      val prev = row
      val cur  = new Array[Double](m + 1)
      java.util.Arrays.fill(cur, Double.PositiveInfinity)
      IntStream.rangeClosed(j, m).parallel().forEach { i =>
        var bestV = Double.PositiveInfinity
        var bestH = j - 1
        def consider(h: Int): Unit = {
          val v = math.max(prev(h), maxVar(h, i))
          if (v < bestV) { bestV = v; bestH = h }
        }
        // prev(h) is nondecreasing and maxVar(h, i) nonincreasing in h; find
        // the crossing and probe its neighborhood (approximate oracles can
        // perturb monotonicity locally, so probe a small window).
        var lo = j - 1; var hi = i - 1
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          if (prev(mid) < maxVar(mid, i)) lo = mid + 1 else hi = mid
        }
        var h = math.max(j - 1, lo - 2)
        while (h <= math.min(i - 1, lo + 2)) { consider(h); h += 1 }
        cur(i) = bestV
        choice(j)(i) = bestH
      }
      row = cur
    }
    // reconstruct bucket boundaries in sample space
    val bounds = new Array[Int](k + 1)
    bounds(k) = m
    var jj = k
    while (jj >= 2) { bounds(jj - 1) = choice(jj)(bounds(jj)); jj -= 1 }
    bounds(0) = 0
    toPartitioning(s, bounds, row(m))
  }

  /** The sampling + discretization ADP used in the paper's experiments:
    * SUM/COUNT use the median-split 4-approximate oracle (Lemma A.3), AVG the
    * δm-window index (Lemma A.5). COUNT short-circuits to the closed-form
    * optimum (equal-depth, Lemma A.1).
    */
  def adp(s: SortedSample1D, k: Int, agg: Agg, deltaM0: Int = 0): Partitioning1D = agg match {
    case Agg.Count => equalDepth(s, k)
    case Agg.Sum   => dp(s, k, (p1, p2) => MaxVar.discSum(s, p1, p2))
    case Agg.Avg =>
      val deltaM = if (deltaM0 >= 1) deltaM0 else math.max(4, s.n / (4 * math.max(1, k)))
      val idx    = new AvgWindowIndex(s, deltaM)
      dp(s, k, (p1, p2) => idx.maxAvgVar(p1, p2))
    case other => throw new IllegalArgumentException(s"no partitioner for $other")
  }

  /** Equal-depth (equal sample count) buckets — the ST baseline's strata and
    * the optimal COUNT partitioning.
    */
  def equalDepth(s: SortedSample1D, k0: Int): Partitioning1D = {
    val m      = s.n
    val k      = math.min(k0, math.max(1, m))
    val bounds = Array.tabulate(k + 1)(j => (j.toLong * m / k).toInt)
    val value  = (0 until k).map(j => MaxVar.countExact(bounds(j + 1) - bounds(j))).max
    toPartitioning(s, bounds, value)
  }
}

package repro.bench

import repro.core.Rect

/** Random "meaningful" query workloads (Sec 4.2: partial overlaps must touch
  * at least a δ-fraction of tuples, avoiding degenerate empty predicates).
  * Endpoints are drawn from actual data values so query boundaries are
  * grounded in the dataset, as the optimization framework assumes.
  */
object Workloads {

  /** Random 1-D ranges over the sorted predicate values of `gt`, each matching
    * at least `minFrac` of the rows that some range can match. A NaN or +∞
    * coordinate lies in no half-open range; both sort last, so the endpoints
    * come from the prefix before them.
    */
  def ranges1D(gt: GroundTruth, nQueries: Int, minFrac: Double, seed: Long): Array[Rect] = {
    require(gt.dims == 1, "ranges1D needs a 1-D ground truth")
    val rnd = new scala.util.Random(seed)
    val cs  = gt.sortedC
    var n   = cs.length
    while (n > 0 && !(cs(n - 1) < Double.PositiveInfinity)) n -= 1
    require(n > 0, "ranges1D needs a row with a coordinate below +Infinity")
    val minLen = math.max(1, (minFrac * n).toInt)
    Array.fill(nQueries) {
      val i = rnd.nextInt(math.max(1, n - minLen))
      val j = math.min(n - 1, i + minLen + rnd.nextInt(math.max(1, n - minLen - i)))
      Rect.range(cs(i), Math.nextUp(cs(j)))
    }
  }

  /** Random axis-aligned rectangles: each dimension gets an independent
    * quantile window of width in `[0.15, 0.85]`; candidates matching fewer
    * than `minCount` rows are rejected (up to 40 retries each).
    */
  def rects(gt: GroundTruth, nQueries: Int, minCount: Long, seed: Long): Array[Rect] = {
    val rnd = new scala.util.Random(seed)
    val quantiles: Array[Array[Double]] = Array.tabulate(gt.dims) { d =>
      val xs = gt.coords(d)
      // subsampled sorted values as a quantile table
      val step = math.max(1, xs.length / 4096)
      val qs   = xs.indices.by(step).map(xs).toArray
      java.util.Arrays.sort(qs)
      qs
    }
    def candidate(): Rect = {
      val lo = new Array[Double](gt.dims)
      val hi = new Array[Double](gt.dims)
      var d  = 0
      while (d < gt.dims) {
        val qs    = quantiles(d)
        val width = 0.15 + rnd.nextDouble() * 0.70
        val start = rnd.nextDouble() * (1.0 - width)
        lo(d) = qs(math.min(qs.length - 1, (start * qs.length).toInt))
        hi(d) = Math.nextUp(qs(math.min(qs.length - 1, ((start + width) * qs.length).toInt)))
        d += 1
      }
      Rect(lo, hi)
    }
    Array.fill(nQueries) {
      var q     = candidate()
      var tries = 0
      while (gt.count(q) < minCount && tries < 40) { q = candidate(); tries += 1 }
      q
    }
  }
}

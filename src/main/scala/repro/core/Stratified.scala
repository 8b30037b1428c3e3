package repro.core

/** One sample restricted to a query predicate: the sample size `ki`, and the
  * count, sum, sum of squares and extrema of the aggregate values of the
  * sampled tuples inside the predicate (`min`/`max` are ±Infinity when none is).
  */
final case class Moments(ki: Int, kMatch: Int, sum: Double, sumSq: Double, min: Double, max: Double)

object Moments {
  /** The one scan of a sample, sorted by dimension 0, for aggregate `agg`:
    * its rows inside `[q.lo(0), q.hi(0))` form one run, found by binary
    * search in `columns(0)` (none for a bound at or beyond its first or last
    * key); inside the run only dimensions 1 .. d−1 are checked (none in
    * 1-D), and rows inside a covered node of `exclude`
    * (AQP++'s gap; null: none) are dropped. `ki` is still the whole sample's
    * size. Each aggregate gets the fields it reads. With nothing to check
    * (1-D, no exclusion), COUNT reads no row (`kMatch` is the run's length)
    * and SUM/AVG read the sample's prefix sums at the run's two ends, in
    * O(log K) for K rows (no extrema; a run of under `ShortRun` rows is
    * summed). MIN/MAX, d > 1 and exclusion run the full loop, summing in row
    * order.
    */
  def scan(s: LeafSample, q: Rect, agg: Agg, exclude: Frontier = null): Moments = {
    val c0 = s.columns(0)
    val n  = c0.length
    val lo = q.lo(0)
    val hi = q.hi(0)
    // A bound at or beyond the sample's first or last key needs no search; a
    // 1-D partial leaf nearly always holds only one of the query's two edges.
    val from = if (n == 0 || lo <= c0(0)) 0 else IndexSort.lowerBound(c0, lo)
    val until =
      if (!(lo <= hi)) from // NaN bound: no run
      else if (n == 0 || c0(n - 1) < hi) n
      else IndexSort.lowerBound(c0, hi)
    val ex    = if (exclude != null && exclude.nCover > 0) exclude else null
    val check = q.dims > 1 || ex != null
    if (check || agg == Agg.Min || agg == Agg.Max) accumulate(s, from, until, q, ex, check)
    else if (agg == Agg.Count) Moments(s.size, until - from, 0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)
    else if (until - from >= ShortRun && s.hasPrefixSums)
      Moments(s.size, until - from, s.runSum(from, until), s.runSumSq(from, until), Double.PositiveInfinity,
              Double.NegativeInfinity)
    else sums(s.values, from, until)
  }

  /** A 1-D run of fewer rows is summed row by row: its error is then below
    * 4ε·Σ|a| even where the prefixes around it are far larger than its sum
    * (a prefix difference errs by up to ε² times the prefixes' magnitude).
    */
  private final val ShortRun = 8

  /** The full loop: rows `from until until` that, when `check` is set, lie
    * in `q` from dimension 1 on and in no covered node of `exclude`.
    */
  private def accumulate(s: LeafSample, from: Int, until: Int, q: Rect, exclude: Frontier,
                         check: Boolean): Moments = {
    val cols   = s.columns
    val values = s.values
    var i      = from
    var k      = 0
    var s1     = 0.0
    var s2     = 0.0
    var mn     = Double.PositiveInfinity
    var mx     = Double.NegativeInfinity
    while (i < until) {
      if (!check || (q.containsFrom(cols, i, 1) && (exclude == null || !exclude.inCover(cols, i)))) {
        val a = values(i)
        k += 1; s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
      i += 1
    }
    Moments(values.length, k, s1, s2, mn, mx)
  }

  /** SUM/AVG over a short 1-D run, or one of a sample without prefix sums,
    * in row order: every row matches; no extrema.
    */
  private def sums(values: Array[Double], from: Int, until: Int): Moments = {
    var i  = from
    var s1 = 0.0
    var s2 = 0.0
    while (i < until) {
      val a = values(i)
      s1 += a; s2 += a * a
      i += 1
    }
    Moments(values.length, until - from, s1, s2, Double.PositiveInfinity, Double.NegativeInfinity)
  }
}

/** The estimator behind every sampling synopsis (Sec 2.1, 2.2, 3.3): the
  * exact aggregate of the MCF `cover` (null: none) plus strata, each of N_i
  * tuples with the [[Moments]] of its uniform sample. SUM/COUNT add the
  * strata's Horvitz–Thompson estimates (N_i/K_i)·Σ_match φ, φ = a or 1, and
  * their FPC-corrected variances; AVG is the ratio of the estimated SUM to
  * COUNT. MIN/MAX is the extreme of the cover and of the matching sampled
  * tuples, NaN when there are none, with no CI. US is one stratum of N tuples;
  * ST is one per overlapping leaf, with no cover; AQP++/KD-US are the cover
  * plus one stratum for the gap; PASS is the cover plus one per partial leaf.
  */
final class Stratified(agg: Agg, cover: Frontier = null) {
  private val coverCount = if (cover == null) 0L else cover.coverCount
  private val coverSum   = if (cover == null) 0.0 else cover.coverSum
  // SUM/COUNT: Σ of the strata estimates. AVG: the estimated SUM, cover included.
  // MIN/MAX: the extreme so far, cover included.
  private var est = agg match {
    case Agg.Avg => coverSum
    case Agg.Min => if (cover == null) Double.PositiveInfinity else cover.coverMin
    case Agg.Max => if (cover == null) Double.NegativeInfinity else cover.coverMax
    case _       => 0.0
  }
  private var cnt  = coverCount.toDouble // AVG: the estimated COUNT Ĉ. MIN/MAX: the rows seen.
  private var vsum = 0.0 // SUM/COUNT: Σ of the strata variances. AVG: Σ Ĉ_i²·var_i/k_i.

  /** Sampled tuples scanned by the strata added so far. */
  var processed = 0L

  /** Adds a stratum of `ni` tuples whose sample has moments `m`. */
  def add(ni: Long, m: Moments): Unit = {
    processed += m.ki
    agg match {
      case Agg.Avg => addRatio(ni, m)
      case Agg.Min => cnt += m.kMatch; est = math.min(est, m.min)
      case Agg.Max => cnt += m.kMatch; est = math.max(est, m.max)
      case _       => addTotal(ni, m)
    }
  }

  // Not one body: HotSpot inlines methods below 325 bytecode bytes. That
  // does not keep the caller's Moments off the heap: each scan allocates its
  // 56 B Moments, and traced nyc1d-answer allocates ≈222 B per answer.
  private def addTotal(ni: Long, m: Moments): Unit = if (m.ki > 0) {
    val s1     = if (agg == Agg.Count) m.kMatch.toDouble else m.sum
    val s2     = if (agg == Agg.Count) m.kMatch.toDouble else m.sumSq
    val mean   = s1 / m.ki
    val varPhi = math.max(0.0, s2 / m.ki - mean * mean)
    est += ni.toDouble / m.ki * s1
    vsum += Stratified.fpc(ni, m.ki) * ni.toDouble * ni * varPhi / m.ki
  }

  private def addRatio(ni: Long, m: Moments): Unit = if (m.ki > 0 && m.kMatch > 0) {
    val cHat = ni.toDouble * m.kMatch / m.ki
    val mean = m.sum / m.kMatch
    val varM = math.max(0.0, m.sumSq / m.kMatch - mean * mean)
    est += cHat * mean
    cnt += cHat
    vsum += cHat * cHat * varM / m.kMatch
  }

  /** Adds an AVG stratum of `ni` tuples whose values all equal `a` (a 0-variance
    * node, Sec 3.4) and whose sample is the union of `samples(leafLo .. leafHi)`:
    * only its matching count is estimated.
    */
  def addConstant(ni: Long, samples: Array[LeafSample], leafLo: Int, leafHi: Int, q: Rect, a: Double): Unit = {
    var ki = 0; var kMatch = 0
    var id = leafLo
    while (id <= leafHi) { // the counts alone: COUNT's scan reads no value
      val m = Moments.scan(samples(id), q, Agg.Count)
      ki += m.ki; kMatch += m.kMatch
      id += 1
    }
    processed += ki
    if (ki > 0 && kMatch > 0) {
      val cHat = ni.toDouble * kMatch / ki
      est += cHat * a
      cnt += cHat
    }
  }

  /** The point estimate; an AVG whose estimated count is 0, or a MIN/MAX
    * that saw no row, is NaN.
    */
  def value: Double = agg match {
    case Agg.Avg   => if (cnt == 0) Double.NaN else est / cnt
    case Agg.Count => coverCount + est
    case Agg.Sum   => coverSum + est
    case _         => if (cnt == 0) Double.NaN else est
  }

  /** The CLT half-width λ·se; NaN where `value` is, and for MIN/MAX. */
  def ciHalf: Double = agg match {
    case Agg.Avg             => if (cnt == 0) Double.NaN else Stratified.Lambda * math.sqrt(vsum / (cnt * cnt))
    case Agg.Sum | Agg.Count => Stratified.Lambda * math.sqrt(vsum)
    case _                   => Double.NaN
  }

  /** MIN/MAX: the extreme of the cover and the matching sampled tuples, ±∞
    * when there are none. The observed minimum can only overestimate the true
    * one, so it is PASS's MIN upper bound (and the maximum its MAX lower bound).
    */
  def extreme: Double = est

  /** The estimate of a synopsis without hard bounds. */
  def estimate: Estimate = Estimate(value, ciHalf, processedSamples = processed)
}

object Stratified {
  /** The CI multiplier λ of every synopsis: 2.576, a 99 % interval (the paper's default). */
  final val Lambda = 2.576

  /** Finite-population correction (N−K)/(N−1) (paper footnote 1). */
  def fpc(n: Long, k: Int): Double =
    if (n <= 1) 0.0 else math.max(0.0, (n - k).toDouble / (n - 1).toDouble)
}

package repro.core

/** A 1-D optimization sample sorted by predicate value, with prefix sums over
  * the aggregate values. All single-partition variance formulas of Sec 4.2.1
  * and the max-variance oracles of Appendix A.2–A.4 operate on this view.
  *
  * Index conventions: all ranges are half-open `[i, j)` over sample positions;
  * a partition is `[p1, p2)` and a candidate query inside it is `[q1, q2)`.
  */
final class SortedSample1D private (val cs: Array[Double], val as: Array[Double]) {
  val n: Int = cs.length
  private val pre1 = new Array[Double](n + 1) // prefix sums of a
  private val pre2 = new Array[Double](n + 1) // prefix sums of a^2
  locally {
    var i = 0
    while (i < n) {
      pre1(i + 1) = pre1(i) + as(i)
      pre2(i + 1) = pre2(i) + as(i) * as(i)
      i += 1
    }
  }

  /** Σ a over `[i, j)`. */
  def s1(i: Int, j: Int): Double = pre1(j) - pre1(i)

  /** Σ a² over `[i, j)`. */
  def s2(i: Int, j: Int): Double = pre2(j) - pre2(i)

  /** Single-partition variance of a SUM query `[q1,q2)` inside partition of
    * `ni` samples: `Σ t² − (Σ t)²/n_i` (Sec 4.2.1 with the constant
    * `(N_i/n_i)²` scale dropped — it cancels in comparisons under the
    * Appendix A.1 bounded-ratio assumption).
    */
  def vSum(q1: Int, q2: Int, ni: Int): Double = {
    val a1 = s1(q1, q2)
    math.max(0.0, s2(q1, q2) - a1 * a1 / ni)
  }

  /** Single-partition variance of a COUNT query of `cnt` matching samples in a
    * partition of `ni` samples: `cnt − cnt²/n_i`.
    */
  def vCount(cnt: Int, ni: Int): Double =
    math.max(0.0, cnt - cnt.toDouble * cnt / ni)

  /** Single-partition variance of an AVG query `[q1,q2)` inside a partition of
    * `ni` samples: `(n_i Σt² − (Σt)²) / (n_i |q|²)`.
    */
  def vAvg(q1: Int, q2: Int, ni: Int): Double = {
    val cnt = q2 - q1
    if (cnt == 0) 0.0
    else {
      val a1 = s1(q1, q2)
      math.max(0.0, (ni * s2(q1, q2) - a1 * a1) / (ni.toDouble * cnt * cnt))
    }
  }

  def variance(agg: Agg, q1: Int, q2: Int, ni: Int): Double = agg match {
    case Agg.Sum   => vSum(q1, q2, ni)
    case Agg.Count => vCount(q2 - q1, ni)
    case Agg.Avg   => vAvg(q1, q2, ni)
    case other     => throw new IllegalArgumentException(s"no variance for $other")
  }
}

object SortedSample1D {
  /** Builds the view from unsorted (c, a) pairs. */
  def apply(cs: Array[Double], as: Array[Double]): SortedSample1D = {
    require(cs.length == as.length, "column length mismatch")
    val idx = IndexSort.sortBy(Array.range(0, cs.length))(cs(_))
    new SortedSample1D(idx.map(cs), idx.map(as))
  }
}

/** O(1) range-maximum over a static array (standard sparse table). Used by the
  * δm-window AVG max-variance index (Appendix A.4, d = 1).
  */
final class SparseTableMax(xs: Array[Double]) {
  private val n            = xs.length
  private val log          = new Array[Int](math.max(2, n + 1))
  locally { var i = 2; while (i <= n) { log(i) = log(i / 2) + 1; i += 1 } }
  private val levels = math.max(1, if (n == 0) 1 else log(n) + 1)
  // table(k)(i) = index of the max over xs[i, i + 2^k)
  private val table = Array.ofDim[Int](levels, math.max(1, n))
  locally {
    var i = 0
    while (i < n) { table(0)(i) = i; i += 1 }
    var k = 1
    while (k < levels) {
      var i2 = 0
      while (i2 + (1 << k) <= n) {
        val a = table(k - 1)(i2); val b = table(k - 1)(i2 + (1 << (k - 1)))
        table(k)(i2) = if (xs(a) >= xs(b)) a else b
        i2 += 1
      }
      k += 1
    }
  }

  /** Index of the maximum element in `[i, j)`; requires i < j. */
  def argmax(i: Int, j: Int): Int = {
    require(i < j && i >= 0 && j <= n, s"bad range [$i,$j) of $n")
    val k = log(j - i)
    val a = table(k)(i); val b = table(k)(j - (1 << k))
    if (xs(a) >= xs(b)) a else b
  }
}

/** Max-variance-query oracles for a partition: the O(1)/O(log m)
  * discretized versions of Appendix A.3/A.4 used by the ADP. The exact
  * brute-force maximum they approximate is the tests' oracle.
  */
object MaxVar {

  /** Discretized SUM/COUNT max variance (Appendix A.3): split the partition at
    * its median sample and return the larger half-variance. Lemma A.3: this is
    * a 4-approximation of the true maximum. O(1) via prefix sums.
    */
  def discSum(s: SortedSample1D, p1: Int, p2: Int): Double = {
    val ni = p2 - p1
    if (ni <= 1) return 0.0
    val mid = p1 + ni / 2
    math.max(s.vSum(p1, mid, ni), s.vSum(mid, p2, ni))
  }

  /** COUNT max variance in closed form: `cnt(1 − cnt/n_i)` is maximized at
    * `cnt = n_i/2`, giving `≈ n_i/4` (Lemma A.1).
    */
  def countExact(ni: Int): Double =
    if (ni <= 1) 0.0 else { val c = ni / 2; c - c.toDouble * c / ni }
}

/** AVG max-variance index (Appendix A.4, d = 1): the maximum-variance AVG query
  * has fewer than 2δm samples (Lemma A.4), so it suffices to consider the O(m)
  * windows of exactly δm samples. We precompute each window's sum of squares
  * and a sparse table for range-argmax; Lemma A.5 shows the window with the
  * largest Σt² 4-approximates the max-variance query.
  */
final class AvgWindowIndex(s: SortedSample1D, val deltaM: Int) {
  require(deltaM >= 1, "deltaM must be >= 1")
  // w2(g) = Σ t² over the window [g, g + δm)
  private val nWin = math.max(0, s.n - deltaM + 1)
  private val w2   = Array.tabulate(nWin)(g => s.s2(g, g + deltaM))
  private val st   = if (nWin > 0) new SparseTableMax(w2) else null

  /** Approximate maximum AVG-query variance in partition [p1, p2). Partitions
    * with fewer than 2δm samples are treated as zero-variance (Appendix A.4).
    */
  def maxAvgVar(p1: Int, p2: Int): Double = {
    val ni = p2 - p1
    if (ni < 2 * deltaM) return 0.0
    // windows starting in [p1, p2 - δm] lie fully inside the partition
    val g = st.argmax(p1, p2 - deltaM + 1)
    s.vAvg(g, g + deltaM, ni)
  }
}

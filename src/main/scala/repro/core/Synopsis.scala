package repro.core

/** What every approach of the paper's evaluation (Sec 5) stores and answers
  * with: PASS, the US, ST and AQP++/KD-US baselines and DeepDB-lite. The
  * tables score each one through this type alone.
  */
trait Synopsis {
  def answer(q: Rect, agg: Agg): Estimate

  /** Footprint in bytes. */
  def storageBytes: Long
}

/** A stored uniform sample, the one sample format of every sampling synopsis
  * (a PASS or ST leaf, the US or AQP++ sample): one primitive column of
  * predicate coordinates per dimension and one of aggregate values, a row per
  * sampled tuple, sorted by the dimension-0 coordinate (NaN last). The rows of
  * a query's dimension-0 range are then one run, which `Moments.scan` finds by
  * binary search in `columns(0)`. Only the factory, which sorts, builds one.
  *
  * Each sample also derives prefix sums of its values and squared values in
  * row order, so a run's Σ a and Σ a² are each two reads (`runSum`,
  * `runSumSq`). Every prefix is a double-double `hi + lo` kept normalized by
  * error-free two-sums (Knuth's TwoSum, as in Neumaier's compensated sum), so
  * a difference of two prefixes errs by about ε times the run's own Σ|a|, not
  * ε times the prefixes around it (see `prefixSums` for the ε² term that
  * remains). The prefixes are `@transient` and derived again on
  * deserialization: they are never stored bytes. A sample whose sums
  * overflow (a value, square or running sum beyond ±Double.MaxValue) has
  * none, and is summed row by row.
  */
final class LeafSample private (val columns: Array[Array[Double]], val values: Array[Double])
    extends Serializable {
  def size: Int = values.length
  def dims: Int = columns.length

  // Σ a and Σ a² over rows [0, i) at prefix(4i) .. prefix(4i + 3), as (hi, lo)
  // pairs, adjacent so that the four reads at one run end share cache lines.
  // Null if a sum is not finite.
  @transient private var prefix = LeafSample.prefixSums(values)

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    prefix = LeafSample.prefixSums(values)
  }

  /** The sample has prefix sums: `runSum` and `runSumSq` may be called. */
  def hasPrefixSums: Boolean = prefix != null

  /** Σ a over rows `[from, until)`, within about 2ε·Σ|a| of the exact sum. */
  def runSum(from: Int, until: Int): Double = {
    val p = prefix
    (p(4 * until) - p(4 * from)) + (p(4 * until + 1) - p(4 * from + 1))
  }

  /** Σ a² over rows `[from, until)`, within about 2ε·Σ a² of the exact sum. */
  def runSumSq(from: Int, until: Int): Double = {
    val p = prefix
    (p(4 * until + 2) - p(4 * from + 2)) + (p(4 * until + 3) - p(4 * from + 3))
  }

  /** The rows' coordinates, one array per row, copied on each call. No answer
    * path reads it.
    */
  def coords: Array[Array[Double]] = Array.tabulate(size)(i => Array.tabulate(dims)(columns(_)(i)))

  /** Footprint in bytes: d coordinates and one value per sampled tuple. */
  def storageBytes: Long = size.toLong * (dims + 1L) * 8L
}
object LeafSample {
  /** The sample of the rows with coordinates `columns(j)(i)` and values
    * `values(i)`, stably reordered by dimension 0.
    */
  def apply(columns: Array[Array[Double]], values: Array[Double]): LeafSample = {
    require(columns.nonEmpty, "a sample has at least one dimension")
    require(columns.forall(_.length == values.length), "column/values length mismatch")
    val c0    = columns(0)
    val order = IndexSort.sortBy(Array.range(0, values.length))(c0(_))
    new LeafSample(columns.map(permute(_, order)), permute(values, order))
  }

  /** The sample of no rows in `d` dimensions. */
  def empty(d: Int): LeafSample = LeafSample(Array.fill(d)(Array.emptyDoubleArray), Array.emptyDoubleArray)

  private def permute(xs: Array[Double], order: Array[Int]): Array[Double] = {
    val out = new Array[Double](order.length)
    var i   = 0
    while (i < order.length) { out(i) = xs(order(i)); i += 1 }
    out
  }

  /** The interleaved prefix sums of `LeafSample.prefix`, or null if one is
    * not finite. Each step adds one term to a normalized double-double
    * (hi, lo): TwoSum(hi, x) is exact, its error joins lo, and a second TwoSum
    * renormalizes. Only the add into lo rounds, by at most ε²·|hi|, so a run's
    * sum errs by about ε times its own Σ|x|, plus ε² times the prefixes'
    * magnitude per row of the run.
    */
  private def prefixSums(values: Array[Double]): Array[Double] = {
    val p = new Array[Double](4 * (values.length + 1))
    var i = 0
    while (i < values.length) {
      val a = values(i)
      val b = 4 * i
      twoSumInto(p, b, a)
      twoSumInto(p, b + 2, a * a)
      i += 1
    }
    val last = 4 * values.length // a non-finite sum stays non-finite to the end
    if ((0 until 4).forall(j => java.lang.Double.isFinite(p(last + j)))) p else null
  }

  /** Writes (hi, lo) + x, from `p(b)`, `p(b + 1)`, to `p(b + 4)`, `p(b + 5)`. */
  private def twoSumInto(p: Array[Double], b: Int, x: Double): Unit = {
    val hi = p(b); val lo = p(b + 1)
    val s  = hi + x
    val z  = s - hi
    val t  = lo + ((hi - (s - z)) + (x - z)) // lo + the exact error of hi + x
    val h  = s + t
    val w  = h - s
    p(b + 4) = h
    p(b + 5) = (s - (h - w)) + (t - w)
  }
}

/** The PASS synopsis (Fig 2): a partition tree annotated with exact partition
  * aggregates plus per-leaf stratified samples, answering SUM/COUNT/AVG/MIN/MAX
  * with predicates via MCF + partial aggregation + sample estimation (Sec 3.3).
  *
  * @param tree       partition tree with rolled-up statistics
  * @param samples    per-leaf stratified samples indexed by leafId
  * @param totalRows  N, the base-table cardinality
  * @param zeroVarRule whether AVG queries stop MCF early at min==max nodes
  */
final class PassSynopsis(
    val tree: FlatTree,
    val samples: Array[LeafSample],
    val totalRows: Long,
    val zeroVarRule: Boolean = true,
) extends Synopsis with Serializable {
  require(tree.leafCount == samples.length, "leaf/sample count mismatch")

  // the root and the leaves by leaf id, as node views
  def root: TreeNode               = tree.root
  def leaves: IndexedSeq[TreeNode] = tree.leaves

  /** Total sampled tuples stored (synopsis size accounting, BSS denominator). */
  def storedSamples: Long = samples.map(_.size.toLong).sum

  /** Footprint in bytes of the sampled tuples. */
  def sampleBytes: Long = samples.map(_.storageBytes).sum

  /** Synopsis footprint in bytes: tree aggregates + sampled tuples. */
  def storageBytes: Long = tree.storageBytes + sampleBytes

  /** Answers one aggregate query (Sec 3.3) in one pass over the frontier. MCF
    * runs into the calling thread's reused frontier and folds the cover's
    * exact aggregate. One loop then visits the partial leaves, then the
    * 0-variance nodes: it folds their exact count, sum and extrema (the hard
    * bounds, Sec 2.3) and adds each one's sample to the estimator. After it,
    * each aggregate is arithmetic. The tree is never written after the
    * build, so concurrent calls share nothing mutable. See `Estimate` for
    * field semantics.
    */
  def answer(q: Rect, agg: Agg): Estimate = {
    val t        = tree
    val f        = t.mcf(q, zeroVarRule && agg == Agg.Avg, Frontier.ofThread)
    val coverCnt = f.coverCount
    val coverSum = f.coverSum
    // the exact cover + one stratum per partial leaf or 0-variance node
    val est = new Stratified(agg, f)
    // the frontier's exact count, sum and extrema, and SUM's hard bounds
    // (generalized for possibly-negative values), each folded in visit order
    var fCnt = 0L; var fSum = 0.0
    var fMin = Double.PositiveInfinity; var fMax = Double.NegativeInfinity
    var lb   = coverSum; var ub = coverSum
    val nPart  = f.nPartial
    val nFront = nPart + f.nZeroVar
    var i      = 0
    // `while`: a closure would heap-allocate itself and a box per captured var
    while (i < nFront) {
      val n = if (i < nPart) f.partialIx(i) else f.zeroVarIx(i - nPart)
      fCnt += t.count(n); fSum += t.sum(n)
      fMin = math.min(fMin, t.min(n)); fMax = math.max(fMax, t.max(n))
      lb += (if (t.min(n) >= 0) 0.0 else t.count(n) * math.min(0.0, t.min(n)))
      ub += (if (t.min(n) >= 0) t.sum(n) else t.count(n) * math.max(0.0, t.max(n)))
      if (i >= nPart) // a 0-variance node's sample lives at the leaves below it
        est.addConstant(t.count(n), samples, t.leafLo(n), t.leafHi(n), q, t.min(n))
      else est.add(t.count(n), Moments.scan(samples(t.leafId(n)), q, agg))
      i += 1
    }
    val skipRate = if (totalRows == 0) 1.0 else 1.0 - fCnt.toDouble / totalRows

    agg match {
      case Agg.Sum => Estimate(est.value, est.ciHalf, lb, ub, est.processed, skipRate)

      case Agg.Count => // no 0-variance node: the frontier is the partial leaves
        Estimate(est.value, est.ciHalf, coverCnt.toDouble, coverCnt.toDouble + fCnt, est.processed, skipRate)

      case Agg.Avg =>
        // hard bounds from the cover's average and the frontier's extrema
        // (±∞ when the frontier is empty); a NaN cover average drops out only
        // when the frontier has rows
        val coveredAvg = if (coverCnt > 0) coverSum / coverCnt else Double.NaN
        val frontOnly  = coverCnt == 0 && nFront > 0
        val avgLb      = if (frontOnly) fMin else math.min(coveredAvg, fMin)
        val avgUb      = if (frontOnly) fMax else math.max(coveredAvg, fMax)
        val value = est.value
        if (value.isNaN && nFront > 0) {
          // nothing covered and no sampled tuple matched: answer the frontier's
          // exact average, which lies in [lb, ub], with the bounds as the CI
          val v = fSum / fCnt
          Estimate(v, math.max(avgUb - v, v - avgLb), avgLb, avgUb, est.processed, skipRate)
        } else Estimate(value, est.ciHalf, avgLb, avgUb, est.processed, skipRate)

      // the exact extremes of the cover and the partial leaves bound the
      // sampled extreme from the other side
      case Agg.Min =>
        Estimate(est.value, est.ciHalf, math.min(f.coverMin, fMin), est.extreme, est.processed, skipRate)
      case Agg.Max =>
        Estimate(est.value, est.ciHalf, est.extreme, math.max(f.coverMax, fMax), est.processed, skipRate)
    }
  }
}

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
  * (a PASS or ST leaf, the US or AQP++ sample): predicate coordinates
  * (row-major) and aggregate values for each sampled tuple, sorted by the
  * dimension-0 coordinate (NaN last). The rows of a query's dimension-0 range
  * are then one run, which `Moments.scan` finds by binary search. Only the
  * factory, which sorts, builds one.
  */
final class LeafSample private (val coords: Array[Array[Double]], val values: Array[Double])
    extends Serializable {
  def size: Int = values.length

  /** Footprint in bytes: d coordinates and one value per sampled tuple. */
  def storageBytes: Long = size.toLong * (coords.headOption.fold(0)(_.length) + 1L) * 8L
}
object LeafSample {
  /** The sample of the given rows, stably reordered by dimension 0. */
  def apply(coords: Array[Array[Double]], values: Array[Double]): LeafSample = {
    require(coords.length == values.length, "coords/values length mismatch")
    val order = IndexSort.sortBy(Array.range(0, values.length))(coords(_)(0))
    new LeafSample(order.map(coords), order.map(values))
  }

  val empty: LeafSample = LeafSample(Array.empty, Array.empty)
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
    // `while`: a closure capturing `est` would heap-allocate it and every Moments
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

package repro.core

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
    val order = Array.range(0, values.length).sortBy(coords(_)(0))(Ordering.Double.TotalOrdering)
    new LeafSample(order.map(coords), order.map(values))
  }

  val empty: LeafSample = LeafSample(Array.empty, Array.empty)
}

/** The PASS synopsis (Fig 2): a partition tree annotated with exact partition
  * aggregates plus per-leaf stratified samples, answering SUM/COUNT/AVG/MIN/MAX
  * with predicates via MCF + partial aggregation + sample estimation (Sec 3.3).
  *
  * @param root       partition tree with populated statistics
  * @param leaves     leaf nodes indexed by leafId
  * @param samples    per-leaf stratified samples indexed by leafId
  * @param totalRows  N, the base-table cardinality
  * @param zeroVarRule whether AVG queries stop MCF early at min==max nodes
  */
final class PassSynopsis(
    val root: TreeNode,
    val leaves: Array[TreeNode],
    val samples: Array[LeafSample],
    val totalRows: Long,
    val zeroVarRule: Boolean = true,
) extends Serializable {
  require(leaves.length == samples.length, "leaf/sample count mismatch")

  /** Total sampled tuples stored (synopsis size accounting, BSS denominator). */
  def storedSamples: Long = samples.map(_.size.toLong).sum

  /** Footprint in bytes of the sampled tuples. */
  def sampleBytes: Long = samples.map(_.storageBytes).sum

  /** Synopsis footprint in bytes: tree aggregates + sampled tuples. */
  def storageBytes: Long = PartitionTree.storageBytes(root) + sampleBytes

  /** The moments of the union of the samples of leaves `lo` to `hi`. */
  private def pooledMoments(lo: Int, hi: Int, q: Rect, agg: Agg): Moments = {
    var m  = Moments.empty
    var id = lo
    while (id <= hi) { m = m + Moments.scan(samples(id), q, agg); id += 1 }
    m
  }

  /** Answers one aggregate query. See `Estimate` for field semantics. MCF
    * runs into the calling thread's reused frontier and node statistics come
    * from the flat tree, so concurrent calls share nothing mutable.
    */
  def answer(q: Rect, agg: Agg): Estimate = {
    val t      = PartitionTree.flat(root)
    val f      = t.mcf(q, zeroVarRule && agg == Agg.Avg, Frontier.ofThread)
    val nPart  = f.nPartial
    val nFront = nPart + f.nZeroVar
    // the frontier: partial leaves, then 0-variance nodes
    def front(i: Int): Int = if (i < nPart) f.partialIx(i) else f.zeroVarIx(i - nPart)

    var coverSum = 0.0
    var coverCnt = 0L
    var i        = 0
    while (i < f.nCover) { val c = f.coverIx(i); coverSum += t.sum(c); coverCnt += t.count(c); i += 1 }
    var frontCnt = 0L
    i = 0
    while (i < nFront) { frontCnt += t.count(front(i)); i += 1 }
    val skipRate = if (totalRows == 0) 1.0 else 1.0 - frontCnt.toDouble / totalRows

    // exact cover + one stratum per partial leaf / 0-variance node; `while`, as a
    // closure capturing `est` would heap-allocate it and every leaf's Moments
    def estimator(): Stratified = {
      val est = new Stratified(agg, coverSum, coverCnt)
      var i = 0
      while (i < nPart) {
        val l = f.partialIx(i)
        est.add(t.count(l), Moments.scan(samples(t.leafId(l)), q, agg))
        i += 1
      }
      i = 0
      while (i < f.nZeroVar) { // a 0-variance node's sample lives at the leaves below it
        val z = f.zeroVarIx(i)
        est.addConstant(t.count(z), pooledMoments(t.leafLo(z), t.leafHi(z), q, agg), t.min(z))
        i += 1
      }
      est
    }

    agg match {
      case Agg.Sum =>
        val est = estimator()
        // hard bounds (Sec 2.3), generalized for possibly-negative values
        var lb = coverSum; var ub = coverSum
        i = 0
        while (i < nFront) {
          val n = front(i)
          lb += (if (t.min(n) >= 0) 0.0 else t.count(n) * math.min(0.0, t.min(n)))
          ub += (if (t.min(n) >= 0) t.sum(n) else t.count(n) * math.max(0.0, t.max(n)))
          i += 1
        }
        Estimate(est.value, est.ciHalf, lb, ub, est.processed, skipRate)

      case Agg.Count =>
        val est = estimator()
        val ub  = coverCnt.toDouble + frontCnt // no 0-variance node: the frontier is the partial leaves
        Estimate(est.value, est.ciHalf, coverCnt.toDouble, ub, est.processed, skipRate)

      case Agg.Avg =>
        val est = estimator()
        // hard bounds (Sec 2.3) from the frontier's extrema, ordered as
        // `Seq.min`/`max` order doubles (NaN above every number)
        val coveredAvg =
          if (coverCnt > 0) coverSum / coverCnt else Double.NaN
        var fMin = Double.NaN; var fMax = Double.NaN; var fSum = 0.0
        i = 0
        while (i < nFront) {
          val n = front(i)
          if (i == 0 || java.lang.Double.compare(t.min(n), fMin) < 0) fMin = t.min(n)
          if (i == 0 || java.lang.Double.compare(t.max(n), fMax) > 0) fMax = t.max(n)
          fSum += t.sum(n)
          i += 1
        }
        val lb =
          if (nFront == 0) coveredAvg
          else if (coverCnt == 0) fMin
          else math.min(coveredAvg, fMin)
        val ub =
          if (nFront == 0) coveredAvg
          else if (coverCnt == 0) fMax
          else math.max(coveredAvg, fMax)
        val value = est.value
        if (value.isNaN && nFront > 0) {
          // nothing covered and no sampled tuple matched: answer the frontier's
          // exact average, which lies in [lb, ub], with the bounds as the CI
          val v = fSum / frontCnt
          Estimate(v, math.max(ub - v, v - lb), lb, ub, est.processed, skipRate)
        } else Estimate(value, est.ciHalf, lb, ub, est.processed, skipRate)

      case Agg.Min | Agg.Max =>
        val isMin = agg == Agg.Min
        // the cover's extreme, the partial leaves' pooled moments, and their
        // exact extreme, each folded in visit order
        var coverExt = if (isMin) Double.PositiveInfinity else Double.NegativeInfinity
        i = 0
        while (i < f.nCover) {
          val c = f.coverIx(i)
          coverExt = if (isMin) math.min(coverExt, t.min(c)) else math.max(coverExt, t.max(c))
          i += 1
        }
        var m       = Moments.empty
        var leafExt = coverExt
        i = 0
        while (i < nPart) {
          val l = f.partialIx(i)
          m = m + Moments.scan(samples(t.leafId(l)), q, agg)
          leafExt = if (isMin) math.min(leafExt, t.min(l)) else math.max(leafExt, t.max(l))
          i += 1
        }
        // the observed minimum can only overestimate the true minimum (+∞ if
        // none is observed); the exact leaf extremes bound it from below
        if (isMin) Estimate(m.extreme(agg, coverCnt, coverExt), Double.NaN, leafExt, math.min(coverExt, m.min), m.ki, skipRate)
        else Estimate(m.extreme(agg, coverCnt, coverExt), Double.NaN, math.max(coverExt, m.max), leafExt, m.ki, skipRate)
    }
  }
}

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

  private def moments(leafId: Int, q: Rect): Moments = Moments.scan(samples(leafId), q)

  /** Moments of the union of the given leaves' samples. */
  private def pooledMoments(leafIds: Iterable[Int], q: Rect): Moments =
    leafIds.foldLeft(Moments.empty)((m, id) => m + moments(id, q))

  /** Answers one aggregate query. See `Estimate` for field semantics. */
  def answer(q: Rect, agg: Agg): Estimate = {
    val f      = PartitionTree.mcf(root, q, zeroVarRule = zeroVarRule && agg == Agg.Avg)
    val nPart  = f.partial.length
    val nFront = nPart + f.zeroVar.length
    def front(i: Int): TreeNode = if (i < nPart) f.partial(i) else f.zeroVar(i - nPart)

    var coverSum = 0.0
    var coverCnt = 0L
    var i        = 0
    while (i < f.cover.length) { coverSum += f.cover(i).sum; coverCnt += f.cover(i).count; i += 1 }
    var partialCnt = 0L
    i = 0
    while (i < nPart) { partialCnt += f.partial(i).count; i += 1 }
    var frontCnt = partialCnt // partial leaves and 0-variance nodes
    while (i < nFront) { frontCnt += front(i).count; i += 1 }
    val skipRate = if (totalRows == 0) 1.0 else 1.0 - frontCnt.toDouble / totalRows

    // exact cover + one stratum per partial leaf / 0-variance node; `while`, as a
    // closure capturing `est` would heap-allocate it and every leaf's Moments
    def estimator(): Stratified = {
      val est = new Stratified(agg, coverSum, coverCnt)
      var i = 0
      while (i < nPart) {
        val l = f.partial(i)
        est.add(l.count, moments(l.leafId, q))
        i += 1
      }
      i = 0
      while (i < f.zeroVar.length) { // a 0-variance node's sample lives at the leaves below it
        val z = f.zeroVar(i)
        est.addConstant(z.count, pooledMoments(z.leafLo to z.leafHi, q), z.min)
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
          lb += (if (n.min >= 0) 0.0 else n.count * math.min(0.0, n.min))
          ub += (if (n.min >= 0) n.sum else n.count * math.max(0.0, n.max))
          i += 1
        }
        Estimate(est.value, est.ciHalf, lb, ub, est.processed, skipRate)

      case Agg.Count =>
        val est = estimator()
        val ub  = coverCnt.toDouble + partialCnt
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
          if (i == 0 || java.lang.Double.compare(n.min, fMin) < 0) fMin = n.min
          if (i == 0 || java.lang.Double.compare(n.max, fMax) > 0) fMax = n.max
          fSum += n.sum
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

      case Agg.Min =>
        val coverMin = f.cover.iterator.map(_.min).foldLeft(Double.PositiveInfinity)(math.min)
        val m        = pooledMoments(f.partial.map(_.leafId), q)
        // the observed minimum can only overestimate the true minimum (+∞ if none is observed)
        Estimate(m.extreme(agg, coverCnt, coverMin), Double.NaN,
                 f.partial.iterator.map(_.min).foldLeft(coverMin)(math.min), math.min(coverMin, m.min), m.ki, skipRate)

      case Agg.Max =>
        val coverMax = f.cover.iterator.map(_.max).foldLeft(Double.NegativeInfinity)(math.max)
        val m        = pooledMoments(f.partial.map(_.leafId), q)
        Estimate(m.extreme(agg, coverCnt, coverMax), Double.NaN,
                 math.max(coverMax, m.max), f.partial.iterator.map(_.max).foldLeft(coverMax)(math.max), m.ki, skipRate)
    }
  }
}

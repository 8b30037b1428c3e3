package repro.core

/** The stratified sample attached to one leaf: predicate coordinates (row-major)
  * and aggregate values for each sampled tuple.
  */
final case class LeafSample(coords: Array[Array[Double]], values: Array[Double]) {
  def size: Int = values.length
}
object LeafSample {
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
  * @param lambda     CI multiplier (2.576 = 99%, the paper's default)
  * @param zeroVarRule whether AVG queries stop MCF early at min==max nodes
  */
final class PassSynopsis(
    val root: TreeNode,
    val leaves: Array[TreeNode],
    val samples: Array[LeafSample],
    val totalRows: Long,
    val lambda: Double = 2.576,
    val zeroVarRule: Boolean = true,
) extends Serializable {
  require(leaves.length == samples.length, "leaf/sample count mismatch")

  /** Total sampled tuples stored (synopsis size accounting, BSS denominator). */
  def storedSamples: Long = samples.map(_.size.toLong).sum

  /** Synopsis footprint in bytes: tree aggregates + sampled tuples. */
  def storageBytes: Long = {
    val d = root.bounds.dims
    root.preorder.size.toLong * (2L * d + 4L) * 8L + storedSamples * (d + 1L) * 8L
  }

  private def moments(leafId: Int, q: Rect): Moments =
    Moments.scan(samples(leafId).coords, samples(leafId).values, q)

  /** Moments of the union of the given leaves' samples. */
  private def pooledMoments(leafIds: Iterable[Int], q: Rect): Moments =
    leafIds.foldLeft(Moments.empty)((m, id) => m + moments(id, q))

  /** Answers one aggregate query. See `Estimate` for field semantics. */
  def answer(q: Rect, agg: Agg): Estimate = {
    val f = PartitionTree.mcf(root, q, zeroVarRule = zeroVarRule && agg == Agg.Avg)
    val coverSum = f.cover.iterator.map(_.sum).sum
    val coverCnt = f.cover.iterator.map(_.count).sum
    val partialRows = f.partial.iterator.map(_.count).sum +
      f.zeroVar.iterator.map(_.count).sum
    val skipRate = if (totalRows == 0) 1.0 else 1.0 - partialRows.toDouble / totalRows

    // exact cover + one stratum per partial leaf / 0-variance node; `while`, as a
    // closure capturing `est` would heap-allocate it and every leaf's Moments
    def estimator(): Stratified = {
      val est = new Stratified(agg, coverSum, coverCnt)
      var i = 0
      while (i < f.partial.length) {
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
        for (n <- f.partial.iterator ++ f.zeroVar.iterator) {
          lb += (if (n.min >= 0) 0.0 else n.count * math.min(0.0, n.min))
          ub += (if (n.min >= 0) n.sum else n.count * math.max(0.0, n.max))
        }
        Estimate(est.value, est.ciHalf(lambda), lb, ub, est.processed, skipRate)

      case Agg.Count =>
        val est = estimator()
        val ub  = coverCnt.toDouble + f.partial.iterator.map(_.count).sum
        Estimate(est.value, est.ciHalf(lambda), coverCnt.toDouble, ub, est.processed, skipRate)

      case Agg.Avg =>
        val est = estimator()
        // hard bounds (Sec 2.3)
        val coveredAvg =
          if (coverCnt > 0) coverSum / coverCnt else Double.NaN
        val partialExtrema = (f.partial.iterator ++ f.zeroVar.iterator).toSeq
        val lb =
          if (partialExtrema.isEmpty) coveredAvg
          else if (coverCnt == 0) partialExtrema.map(_.min).min
          else math.min(coveredAvg, partialExtrema.map(_.min).min)
        val ub =
          if (partialExtrema.isEmpty) coveredAvg
          else if (coverCnt == 0) partialExtrema.map(_.max).max
          else math.max(coveredAvg, partialExtrema.map(_.max).max)
        val value = est.value
        if (value.isNaN && partialExtrema.nonEmpty) {
          // nothing covered and no sampled tuple matched: answer the frontier's
          // exact average, which lies in [lb, ub], with the bounds as the CI
          val v = partialExtrema.map(_.sum).sum / partialExtrema.map(_.count).sum
          Estimate(v, math.max(ub - v, v - lb), lb, ub, est.processed, skipRate)
        } else Estimate(value, est.ciHalf(lambda), lb, ub, est.processed, skipRate)

      case Agg.Min =>
        val coverMin = f.cover.iterator.map(_.min).foldLeft(Double.PositiveInfinity)(math.min)
        val m        = pooledMoments(f.partial.map(_.leafId), q)
        val est      = math.min(coverMin, m.min)
        // the observed minimum can only overestimate the true minimum
        Estimate(est, Double.NaN, f.partial.iterator.map(_.min).foldLeft(coverMin)(math.min), est, m.ki, skipRate)

      case Agg.Max =>
        val coverMax = f.cover.iterator.map(_.max).foldLeft(Double.NegativeInfinity)(math.max)
        val m        = pooledMoments(f.partial.map(_.leafId), q)
        val est      = math.max(coverMax, m.max)
        Estimate(est, Double.NaN, est, f.partial.iterator.map(_.max).foldLeft(coverMax)(math.max), m.ki, skipRate)
    }
  }
}

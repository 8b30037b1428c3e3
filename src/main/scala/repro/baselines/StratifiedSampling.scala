package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** The ST baseline (Sec 2.2): B equal-depth strata, K/B uniform samples each.
  * Unlike PASS there are no exact partition aggregates — every stratum that
  * overlaps the predicate is estimated from its sample, including fully
  * covered ones. Strata counts and samples come from the same two Spark scans
  * as PASS (exactly min(K/B, N_i) rows per stratum) via [[repro.core.PassBuilder]].
  */
final class StratifiedSampleSynopsis(private val pass: PassSynopsis) extends Synopsis with Serializable {
  def totalRows: Long     = pass.totalRows
  def storedSamples: Long = pass.storedSamples
  def storageBytes: Long  = pass.sampleBytes

  /** Every overlapping stratum is estimated from its sample (no exact parts). */
  def answer(q: Rect, agg: Agg): Estimate = {
    val est = new Stratified(agg)
    val t   = pass.tree
    var i   = 0
    while (i < t.size) { // the leaves, in leaf-id order
      if (t.isLeaf(i) && !t.disjoint(i, q) && t.count(i) > 0)
        est.add(t.count(i), Moments.scan(pass.samples(t.leafId(i)), q, agg))
      i += 1
    }
    est.estimate
  }
}

object StratifiedSampling {
  /** Builds B equal-depth strata with K/B samples each. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, strata: Int, totalSamples: Long,
            seed: Long = 42): (StratifiedSampleSynopsis, Long) = {
    require(predCols.length == 1, "ST baseline is one-dimensional in the paper")
    val r = PassBuilder.build(
      df, predCols, aggCol,
      PassBuilder.EqualDepth1D(strata),
      PassBuilder.TotalBudget(totalSamples),
      seed = seed)
    (new StratifiedSampleSynopsis(r.synopsis), r.buildMillis)
  }
}

package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** The ST baseline (Sec 2.2): B equal-depth strata, K/B uniform samples each.
  * Unlike PASS there are no exact partition aggregates — every stratum that
  * overlaps the predicate is estimated from its sample, including fully
  * covered ones. Strata counts and samples come from the same two Spark scans
  * as PASS (exactly min(K/B, N_i) rows per stratum) via [[repro.core.PassBuilder]].
  */
final class StratifiedSampleSynopsis(private val pass: PassSynopsis) extends Serializable {
  def totalRows: Long     = pass.totalRows
  def storedSamples: Long = pass.storedSamples
  def storageBytes: Long  = pass.sampleBytes

  def answer(q: Rect, agg: Agg): Estimate = {
    // every overlapping stratum is estimated from its sample (no exact parts)
    val strata = pass.leaves.filter(l => !l.bounds.disjoint(q) && l.count > 0).map { l =>
      (l.count, Moments.scan(pass.samples(l.leafId), q))
    }
    agg match {
      case Agg.Min | Agg.Max =>
        val m = strata.foldLeft(Moments.empty)(_ + _._2)
        Estimate(m.extreme(agg), Double.NaN, processedSamples = m.ki)
      case _ =>
        val est = new Stratified(agg)
        for ((ni, m) <- strata) est.add(ni, m)
        est.estimate
    }
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

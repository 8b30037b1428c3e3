package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Agg, Estimate, LeafSample, Moments, PassBuilder, Rect, Stratified, Synopsis}

/** The US baseline: a single uniform sample of K tuples; SUM/COUNT/AVG via the
  * φ-transform of Sec 2.1 with CLT confidence intervals. No hard bounds, no
  * skipping: every query estimates from the whole sample.
  * At K = ⌈r·N⌉ it is Table 2's VerdictDB substitute: a VerdictDB "scramble"
  * of ratio r is a uniform sample that every query scans with scaled estimators.
  */
final class UniformSampleSynopsis(val sample: LeafSample, val totalRows: Long)
    extends Synopsis with Serializable {
  def k: Int = sample.size
  def storageBytes: Long = sample.storageBytes

  def answer(q: Rect, agg: Agg): Estimate = {
    val est = new Stratified(agg) // one stratum: the whole table
    est.add(totalRows, Moments.scan(sample, q, agg))
    est.estimate
  }
}

object UniformSampling {
  /** Draws min(K, N) uniform samples in one Spark scan and collects them. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, k: Int,
            seed: Long = 42): (UniformSampleSynopsis, Long) = {
    require(k >= 1, s"sample size $k must be at least 1")
    val t0 = System.nanoTime()
    val p  = PassBuilder.prepare(df, predCols, aggCol, seed, optSampleSize = 0, uniformSize = k)
    (new UniformSampleSynopsis(p.uniform, p.totalRows), (System.nanoTime() - t0) / 1000000L)
  }
}

package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Agg, Estimate, LeafSample, Moments, PassBuilder, Rect, Stratified}

/** The US baseline: a single uniform sample of K tuples; SUM/COUNT/AVG via the
  * φ-transform of Sec 2.1 with CLT confidence intervals. No hard bounds, no
  * skipping: every query estimates from the whole sample.
  * At K = ⌈r·N⌉ it is Table 2's VerdictDB substitute: a VerdictDB "scramble"
  * of ratio r is a uniform sample that every query scans with scaled estimators.
  */
final class UniformSampleSynopsis(val sample: LeafSample, val totalRows: Long) extends Serializable {
  def k: Int = sample.size
  def storageBytes: Long = sample.storageBytes

  def answer(q: Rect, agg: Agg): Estimate = {
    val m = Moments.scan(sample, q)
    agg match {
      case Agg.Min | Agg.Max => Estimate(m.extreme(agg), Double.NaN, processedSamples = m.ki)
      case _ =>
        val est = new Stratified(agg) // one stratum: the whole table
        est.add(totalRows, m)
        est.estimate
    }
  }
}

object UniformSampling {
  /** Draws K uniform samples with one Spark pass and collects them. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, k: Int,
            seed: Long = 42): (UniformSampleSynopsis, Long) = {
    val t0  = System.nanoTime()
    val syn = draw(PassBuilder.prepare(df, predCols, aggCol), k, seed)
    (syn, (System.nanoTime() - t0) / 1000000L)
  }

  /** The sampling pass of [[build]] over an already prepared projection. */
  private[repro] def draw(p: PassBuilder.Prepared, k: Int, seed: Long): UniformSampleSynopsis = {
    require(k >= 1, s"sample size $k must be at least 1")
    val n    = p.totalRows
    val frac = if (n == 0) 0.0 else math.min(1.0, k.toDouble / n)
    val rows = p.projected.sample(withReplacement = false, frac, seed).collect()
    new UniformSampleSynopsis(PassBuilder.sampleOf(rows, p.dataRect.dims), n)
  }
}

package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Agg, Estimate, Moments, PassBuilder, Rect, Stratified}

/** The US baseline: a single uniform sample of K tuples; SUM/COUNT/AVG via the
  * φ-transform of Sec 2.1 with CLT confidence intervals. No hard bounds, no
  * skipping: every query scans the whole sample.
  * At K = ⌈r·N⌉ it is Table 2's VerdictDB substitute: a VerdictDB "scramble"
  * of ratio r is a uniform sample that every query scans with scaled estimators.
  */
final class UniformSampleSynopsis(
    val coords: Array[Array[Double]],
    val values: Array[Double],
    val totalRows: Long,
    val lambda: Double = 2.576,
) extends Serializable {
  def k: Int = values.length
  def storageBytes: Long = values.length.toLong * (coords.headOption.map(_.length).getOrElse(0) + 1) * 8L

  def answer(q: Rect, agg: Agg): Estimate = {
    val m = Moments.scan(coords, values, q)
    agg match {
      case Agg.Min => Estimate(if (m.kMatch == 0) Double.NaN else m.min, Double.NaN, processedSamples = m.ki)
      case Agg.Max => Estimate(if (m.kMatch == 0) Double.NaN else m.max, Double.NaN, processedSamples = m.ki)
      case _ =>
        val est = new Stratified(agg) // one stratum: the whole table
        est.add(totalRows, m)
        est.estimate(lambda)
    }
  }
}

object UniformSampling {
  /** Draws K uniform samples with one Spark pass and collects them. */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, k: Int,
            lambda: Double = 2.576, seed: Long = 42): (UniformSampleSynopsis, Long) = {
    val t0  = System.nanoTime()
    val syn = draw(PassBuilder.prepare(df, predCols, aggCol), k, lambda, seed)
    (syn, (System.nanoTime() - t0) / 1000000L)
  }

  /** The sampling pass of [[build]] over an already prepared projection. */
  private[repro] def draw(p: PassBuilder.Prepared, k: Int, lambda: Double, seed: Long): UniformSampleSynopsis = {
    require(k >= 1, s"sample size $k must be at least 1")
    val n    = p.totalRows
    val frac = if (n == 0) 0.0 else math.min(1.0, k.toDouble / n)
    val rows = p.projected.sample(withReplacement = false, frac, seed).collect()
    val d    = p.dataRect.dims
    new UniformSampleSynopsis(rows.map(r => Array.tabulate(d)(r.getDouble)), rows.map(_.getDouble(d)), n, lambda)
  }
}

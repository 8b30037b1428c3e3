package repro.bench

import repro.core.{Agg, Estimate, Rect}

/** Scores one approach over one workload: the paper's metrics (Sec 5.1.2) —
  * median relative error, median CI ratio, latency, skip rate — plus the
  * effective-sample-size numerator.
  */
object Harness {

  final case class RunMetrics(
      medianRelErr: Double,
      medianCiRatio: Double,
      meanLatencyMs: Double,
      maxLatencyMs: Double,
      meanSkipRate: Double,
      meanProcessed: Double,
      ciCoverage: Double, // fraction of queries whose CI contains the truth
  )

  def median(xs: Seq[Double]): Double = {
    val v = xs.filterNot(_.isNaN).sorted
    if (v.isEmpty) Double.NaN
    else if (v.length % 2 == 1) v(v.length / 2)
    else (v(v.length / 2 - 1) + v(v.length / 2)) / 2
  }

  /** The timed repetitions of the whole query list run at least this long. */
  private val MinTimedNanos = 50L * 1000 * 1000

  /** Keeps the timed answers observable, so the JIT cannot drop them. */
  @volatile private[bench] var sink = 0.0

  /** Scores `answer` on `queries`. The accuracy metrics and `maxLatencyMs`
    * come from one pass with a clock pair per query; `meanLatencyMs` is the
    * time of R further passes over the whole list divided by R times its
    * length, R chosen so the passes take at least 50 ms: a µs-scale answer is
    * then not timed by one clock pair of its own.
    */
  def evaluate(answer: (Rect, Agg) => Estimate, gt: GroundTruth,
               queries: Array[Rect], agg: Agg): RunMetrics = {
    val relErrs  = Array.newBuilder[Double]
    val ciRatios = Array.newBuilder[Double]
    var passNs   = 0L
    var latMax   = 0.0
    var skipSum  = 0.0
    var procSum  = 0.0
    var covered  = 0
    var ciTotal  = 0
    // JIT warmup so the first measured query does not carry compilation cost
    for (q <- queries.take(10)) answer(q, agg)
    for (q <- queries) {
      val truth = gt.answer(q, agg)
      val t0    = System.nanoTime()
      val est   = answer(q, agg)
      val ns    = System.nanoTime() - t0
      passNs += ns
      latMax = math.max(latMax, ns / 1e6)
      skipSum += est.skipRate
      procSum += est.processedSamples.toDouble
      if (!truth.isNaN && truth != 0.0) {
        relErrs += math.abs(est.value - truth) / math.abs(truth)
        if (!est.ciHalf.isNaN) {
          ciRatios += est.ciHalf / math.abs(truth)
          ciTotal += 1
          if (math.abs(est.value - truth) <= est.ciHalf + 1e-9 * math.abs(truth)) covered += 1
        }
      }
    }
    val reps = math.max(1L, MinTimedNanos / math.max(1L, passNs)).toInt
    var acc  = 0.0
    val t0   = System.nanoTime()
    var r    = 0
    while (r < reps) {
      var i = 0
      while (i < queries.length) { acc += answer(queries(i), agg).value; i += 1 }
      r += 1
    }
    val timedNs = System.nanoTime() - t0
    sink = acc
    RunMetrics(
      medianRelErr = median(relErrs.result().toSeq),
      medianCiRatio = median(ciRatios.result().toSeq),
      meanLatencyMs = timedNs / 1e6 / math.max(1L, reps.toLong * queries.length),
      maxLatencyMs = latMax,
      meanSkipRate = skipSum / math.max(1, queries.length),
      meanProcessed = procSum / math.max(1, queries.length),
      ciCoverage = if (ciTotal == 0) Double.NaN else covered.toDouble / ciTotal,
    )
  }
}

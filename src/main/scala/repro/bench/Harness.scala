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

  /** Each timed batch of whole query-list passes runs at least this long. */
  private val MinBatchNanos = 10L * 1000 * 1000

  /** Timed batches per evaluation; the fastest one gives `meanLatencyMs`. */
  private val TimedBatches = 5

  /** Keeps the timed answers observable, so the JIT cannot drop them. */
  @volatile private[bench] var sink = 0.0

  /** Scores `answer` on `queries`. The accuracy metrics and `maxLatencyMs`
    * come from one pass with a clock pair per query. `meanLatencyMs` is the
    * fastest of 5 timed batches, each of whole passes over the list repeated
    * until the batch has run 10 ms, divided by its passes times the list's
    * length: a µs-scale answer is not timed by one clock pair of its own, and
    * the code a JVM is still compiling in its first batch does not set it.
    */
  def evaluate(answer: (Rect, Agg) => Estimate, gt: GroundTruth,
               queries: Array[Rect], agg: Agg): RunMetrics = {
    val relErrs  = Array.newBuilder[Double]
    val ciRatios = Array.newBuilder[Double]
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
    var acc    = 0.0
    var meanMs = Double.PositiveInfinity
    var b      = 0
    while (b < TimedBatches) {
      val t0   = System.nanoTime()
      var reps = 0L
      var ns   = 0L
      while (ns < MinBatchNanos) {
        var i = 0
        while (i < queries.length) { acc += answer(queries(i), agg).value; i += 1 }
        reps += 1
        ns = System.nanoTime() - t0
      }
      meanMs = math.min(meanMs, ns / 1e6 / math.max(1L, reps * queries.length))
      b += 1
    }
    sink = acc
    RunMetrics(
      medianRelErr = median(relErrs.result().toSeq),
      medianCiRatio = median(ciRatios.result().toSeq),
      meanLatencyMs = meanMs,
      maxLatencyMs = latMax,
      meanSkipRate = skipSum / math.max(1, queries.length),
      meanProcessed = procSum / math.max(1, queries.length),
      ciCoverage = if (ciTotal == 0) Double.NaN else covered.toDouble / ciTotal,
    )
  }
}

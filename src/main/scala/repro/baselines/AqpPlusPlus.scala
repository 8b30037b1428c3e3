package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core._

/** AQP++ [Peng et al. 2018] and the paper's KD-US baseline share one shape:
  * exact pre-computed partition aggregates to cover the bulk of a predicate,
  * plus a single *global uniform* sample to estimate the residual "gap" — in
  * contrast to PASS, which keeps a stratified sample per leaf. The two
  * baselines differ only in how partitions are chosen: AQP++ runs the paper's
  * hill-climbing heuristic in 1-D; KD-US expands a balanced kd-tree.
  */
final class PrecompUniformSynopsis(val tree: FlatTree, val sample: LeafSample, val totalRows: Long)
    extends Synopsis with Serializable {
  def storageBytes: Long = tree.storageBytes + sample.storageBytes

  /** Answers one query: the cover's exact aggregate, as MCF folds it, plus
    * the uniform sample's estimate over the gap.
    */
  def answer(q: Rect, agg: Agg): Estimate = {
    val f   = tree.mcf(q, zeroVarRule = false, Frontier.ofThread)
    val est = new Stratified(agg, f) // one stratum, the whole table, sampled only in the gap `q \ cover`
    est.add(totalRows, Moments.scan(sample, q, agg, exclude = f))
    est.estimate
  }
}

object AqpPlusPlus {

  /** The iterative hill-climbing partition selection described in the AQP++
    * paper (Sec 5.1.3 here): starting from equal-depth cuts, repeatedly move
    * each interior boundary to the candidate position minimizing the maximum
    * gap variance over a probe workload of random intervals. The gap of a
    * probe is the part of its range not covered by whole buckets — exactly
    * what the uniform sample must estimate at query time.
    */
  def hillClimbCuts(s: SortedSample1D, k: Int, seed: Long = 7): Array[Double] = {
    // fixed effort: probe intervals, improvement passes, candidate positions per move
    val nProbes = 200; val passes = 3; val candidatesPerMove = 8
    val m = s.n
    if (m == 0 || k <= 1) return Array.empty
    val rnd    = new scala.util.Random(seed)
    val minLen = math.max(1, m / (4 * k))
    val probes = Array.fill(nProbes) {
      val a = rnd.nextInt(m)
      val b = math.min(m, a + minLen + rnd.nextInt(math.max(1, m - minLen)))
      (math.min(a, b), math.max(math.min(a, b) + 1, math.max(a, b)))
    }
    // gap variance of probe [q1,q2) under boundaries b (sorted, 0 and m at ends)
    def gapVar(b: Array[Int], q1: Int, q2: Int): Double = {
      // whole buckets inside [q1,q2): those j with q1 <= b(j) and b(j+1) <= q2
      var j = 0
      var lo = q2; var hi = q1 // covered span [lo, hi); empty if lo >= hi
      while (j < b.length - 1) {
        if (q1 <= b(j) && b(j + 1) <= q2) { lo = math.min(lo, b(j)); hi = math.max(hi, b(j + 1)) }
        j += 1
      }
      def v(g1: Int, g2: Int): Double =
        if (g2 <= g1) 0.0 else s.vSum(g1, g2, math.max(1, m))
      if (lo >= hi) v(q1, q2) else v(q1, lo) + v(hi, q2)
    }
    def objective(b: Array[Int]): Double = probes.iterator.map { case (q1, q2) => gapVar(b, q1, q2) }.max

    val bounds = Array.tabulate(k + 1)(j => (j.toLong * m / k).toInt)
    var best   = objective(bounds)
    var pass   = 0
    while (pass < passes) {
      var improved = false
      var j = 1
      while (j < k) {
        val lo = bounds(j - 1) + 1; val hi = bounds(j + 1) - 1
        if (hi > lo) {
          var c = 0
          while (c < candidatesPerMove) {
            val cand = lo + ((hi - lo).toLong * c / math.max(1, candidatesPerMove - 1)).toInt
            val old  = bounds(j)
            if (cand != old) {
              bounds(j) = cand
              val v = objective(bounds)
              if (v < best) { best = v; improved = true } else bounds(j) = old
            }
            c += 1
          }
        }
        j += 1
      }
      pass += 1
      if (!improved) pass = passes
    }
    bounds.slice(1, k).map(s.cs)
  }

  /** Builds the 1-D AQP++ baseline: hill-climbed partition aggregates plus a
    * global uniform sample of `totalSamples` tuples.
    */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, partitions: Int,
            totalSamples: Long, seed: Long = 42): (PrecompUniformSynopsis, Long) = {
    require(predCols.length == 1, "AQP++ baseline here is 1-D; use buildKdUs for d>1")
    require(partitions >= 1, s"partition count $partitions must be at least 1")
    precompUniform(df, predCols, aggCol, PassBuilder.Cuts1D(hillClimbCuts(_, partitions, seed = seed)),
      totalSamples, seed)
  }

  /** Builds KD-US (Sec 5.4): balanced kd-tree aggregates + global uniform sample. */
  def buildKdUs(df: DataFrame, predCols: Seq[String], aggCol: String, leaves: Int,
                totalSamples: Long, seed: Long = 42): (PrecompUniformSynopsis, Long) =
    precompUniform(df, predCols, aggCol, PassBuilder.KdBalanced(leaves), totalSamples, seed)

  /** Aggregates-only PASS build plus a uniform sample of min(`totalSamples`,
    * N) rows drawn in the same first scan: two scans of the table. One
    * sample holds at most `Int.MaxValue` rows.
    */
  private def precompUniform(df: DataFrame, predCols: Seq[String], aggCol: String,
                             partitioner: PassBuilder.Partitioner, totalSamples: Long,
                             seed: Long): (PrecompUniformSynopsis, Long) = {
    require(totalSamples >= 1, s"sample size $totalSamples must be at least 1")
    require(totalSamples <= Int.MaxValue, s"sample size $totalSamples exceeds ${Int.MaxValue} rows")
    val t0   = System.nanoTime()
    val p    = PassBuilder.prepare(df, predCols, aggCol, seed, uniformSize = totalSamples.toInt)
    val pass = PassBuilder.buildPrepared(p, partitioner, PassBuilder.PerLeaf(0), seed)
    val syn  = new PrecompUniformSynopsis(pass.tree, p.uniform, p.totalRows)
    (syn, (System.nanoTime() - t0) / 1000000L)
  }
}

package repro.core

/** Pure-Scala synopsis construction over in-memory 1-D data — lets the
  * estimator/tree tests run without a SparkSession and with exact control over
  * the per-leaf samples (e.g. "sample = whole stratum" to force exactness).
  */
object TestSynopses {

  /** Exact (sum, count, min, max) over a (c, a) dataset within a rect. */
  def exactStats(cs: Array[Double], as: Array[Double], r: Rect): (Double, Long, Double, Double) = {
    var s = 0.0; var c = 0L
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = 0
    while (i < cs.length) {
      if (cs(i) >= r.lo(0) && cs(i) < r.hi(0)) {
        s += as(i); c += 1
        mn = math.min(mn, as(i)); mx = math.max(mx, as(i))
      }
      i += 1
    }
    (s, c, mn, mx)
  }

  /** Builds a 1-D PASS synopsis over in-memory data: `cuts` define the leaves
    * (outer edges clamp to the data range), leaf aggregates are exact, and
    * each leaf gets `samplesPerLeaf` uniform samples without replacement
    * (`samplesPerLeaf <= 0` keeps the *entire* stratum as its sample, making
    * every estimate exact).
    */
  def build1D(cs: Array[Double], as: Array[Double], cuts: Array[Double],
              samplesPerLeaf: Int, seed: Long = 1, zeroVarRule: Boolean = true): PassSynopsis = {
    val root   = PartitionTree.build1D(cuts, Rect.range(cs.min, Math.nextUp(cs.max)))
    val leaves = root.leaves.toArray
    for (n <- leaves) {
      val (s, c, mn, mx) = exactStats(cs, as, n.bounds)
      n.count = c; n.sum = s; n.min = mn; n.max = mx
    }
    PartitionTree.rollUpTree(root)
    val rnd = new scala.util.Random(seed)
    val samples = leaves.map { l =>
      val idx = cs.indices.filter(i => l.bounds.contains(Array(cs(i)))).toArray
      val chosen =
        if (samplesPerLeaf <= 0 || samplesPerLeaf >= idx.length) idx
        else rnd.shuffle(idx.toSeq).take(samplesPerLeaf).toArray
      LeafSample(chosen.map(i => Array(cs(i))), chosen.map(as))
    }
    new PassSynopsis(root, leaves, samples, cs.length.toLong, zeroVarRule)
  }

  /** Deterministic random (c, a) data with region-dependent value scales so
    * partitioning choices matter.
    */
  def genData(n: Int, seed: Long): (Array[Double], Array[Double]) = {
    val rnd = new scala.util.Random(seed)
    val cs  = Array.fill(n)(rnd.nextDouble() * 100)
    val as = cs.map { c =>
      val base = if (c < 30) 5.0 else if (c < 70) 50.0 else 200.0
      math.max(0.0, base + rnd.nextGaussian() * base * 0.3)
    }
    (cs, as)
  }
}

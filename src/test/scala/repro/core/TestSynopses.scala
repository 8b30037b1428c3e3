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
    val skeleton = PartitionTree.build1D(cuts, Rect.range(cs.min, Math.nextUp(cs.max)))
    val leaves   = skeleton.leaves
    val stats    = leaves.map(l => exactStats(cs, as, l.bounds)).toArray
    val tree     = skeleton.withLeafStats(stats.map(_._2), stats.map(_._1), stats.map(_._3), stats.map(_._4))
    val rnd      = new scala.util.Random(seed)
    val samples = leaves.map { l =>
      val idx = cs.indices.filter(i => l.bounds.contains(Array(cs(i)))).toArray
      val chosen =
        if (samplesPerLeaf <= 0 || samplesPerLeaf >= idx.length) idx
        else rnd.shuffle(idx.toSeq).take(samplesPerLeaf).toArray
      LeafSample(Array(chosen.map(cs)), chosen.map(as))
    }.toArray
    new PassSynopsis(tree, samples, cs.length.toLong, zeroVarRule)
  }

  /** `skeleton` with every leaf's exact statistics from the rows routed to
    * it, rolled up, and the leaves' row indices, by leaf id.
    */
  def populate(skeleton: FlatTree, pts: Array[Array[Double]],
               vals: Array[Double]): (FlatTree, Array[Array[Int]]) = {
    val byLeaf = pts.indices.groupBy(i => skeleton.leafOf(pts(i)))
    val rows   = Array.tabulate(skeleton.leafCount)(id => byLeaf.getOrElse(id, IndexedSeq.empty).toArray)
    val tree = skeleton.withLeafStats(
      rows.map(_.length.toLong),
      rows.map(_.foldLeft(0.0)((s, i) => s + vals(i))),
      rows.map(_.foldLeft(Double.PositiveInfinity)((m, i) => math.min(m, vals(i)))),
      rows.map(_.foldLeft(Double.NegativeInfinity)((m, i) => math.max(m, vals(i)))))
    (tree, rows)
  }

  /** A d-dimensional PASS synopsis over in-memory rows: a kd tree of at most
    * `k` leaves (greedy KD-PASS or balanced), exact leaf statistics, and
    * `samplesPerLeaf` rows per leaf drawn without replacement.
    */
  def buildKd(pts: Array[Array[Double]], vals: Array[Double], box: Rect, k: Int, greedy: Boolean,
              samplesPerLeaf: Int, seed: Long = 1, zeroVarRule: Boolean = true): PassSynopsis = {
    val skeleton =
      if (greedy) KdTree.buildGreedy(pts, vals, k, Agg.Sum, box)
      else KdTree.buildBalanced(pts, vals, k, box)
    val (tree, rows) = populate(skeleton, pts, vals)
    val rnd          = new scala.util.Random(seed)
    val samples = rows.map { idx =>
      val chosen = rnd.shuffle(idx.toSeq).take(samplesPerLeaf).toArray
      sample(chosen.map(pts), chosen.map(vals), box.dims)
    }
    new PassSynopsis(tree, samples, pts.length.toLong, zeroVarRule)
  }

  /** The sample of `rows`, each of `d` coordinates, and their `values`. */
  def sample(rows: Array[Array[Double]], values: Array[Double], d: Int): LeafSample =
    LeafSample(Array.tabulate(d)(j => rows.map(_(j))), values)

  /** Deterministic d-dimensional rows on an integer grid of side `side` (so
    * medians, splits and query edges coincide), whose values are constant
    * (7.0) where the first coordinate is below `side / 4`, so 0-variance
    * nodes occur.
    */
  def genGrid(n: Int, d: Int, side: Int, seed: Long): (Array[Array[Double]], Array[Double]) = {
    val rnd      = new scala.util.Random(seed)
    val pts  = Array.fill(n)(Array.fill(d)(rnd.nextInt(side).toDouble))
    val vals = pts.map(p => if (p(0) < side / 4) 7.0 else p.sum + 10 * rnd.nextDouble())
    (pts, vals)
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

  /** `genData` values shifted down by 60 to straddle 0: its regions around 5,
    * 50 and 200 become negative, mixed-sign and mostly positive.
    */
  def straddleZero(as: Array[Double]): Array[Double] = as.map(_ - 60.0)
}

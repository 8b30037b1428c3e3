package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{Agg, Estimate, PassBuilder, Rect, Synopsis}

/** Equi-depth histogram over one column with per-bucket sums, supporting
  * `P(lo <= x < hi)` under a within-bucket uniform assumption (zero-width
  * buckets are point masses) and the column's mean.
  */
final class Histogram private (
    val edges: Array[Double],  // b+1 edges
    val counts: Array[Double], // per-bucket row counts
    val sums: Array[Double],   // per-bucket value sums
    val rows: Double,
) extends Serializable {

  /** The share of bucket `b`'s rows in `[lo, hi)`. */
  private[baselines] def overlapFraction(b: Int, lo: Double, hi: Double): Double = {
    val bl = edges(b); val bh = edges(b + 1)
    if (bh <= lo || bl >= hi) 0.0
    else if (bl >= bh) { if (bl >= lo && bl < hi) 1.0 else 0.0 } // point mass
    else {
      val ol = math.max(bl, lo); val oh = math.min(bh, hi)
      math.max(0.0, (oh - ol) / (bh - bl))
    }
  }

  /** Fraction of rows with lo <= x < hi. */
  def prob(lo: Double, hi: Double): Double = {
    if (rows == 0) return 0.0
    var b = 0; var c = 0.0
    while (b < counts.length) { c += counts(b) * overlapFraction(b, lo, hi); b += 1 }
    math.min(1.0, c / rows)
  }

  /** Unconditional per-row mean. */
  def mean: Double = if (rows == 0) 0.0 else sums.sum / rows
}

object Histogram {
  def build(xs: Array[Double], buckets: Int): Histogram = {
    require(xs.nonEmpty, "empty column")
    require(!xs.exists(_.isNaN), "NaN in a histogram column")
    val sorted = xs.clone()
    java.util.Arrays.sort(sorted)
    val n      = sorted.length
    val b      = math.min(buckets, n)
    // Equi-depth quantile edges. A value spanning more than one quantile slot
    // is a heavy point mass: it gets its own sliver bucket [v, nextUp v) so
    // the within-bucket uniform assumption cannot smear it over a wide range.
    val raw = Array.tabulate(b + 1)(i => sorted(math.min(n - 1, (i.toLong * n / b).toInt)))
    val edgeBuf = scala.collection.mutable.ArrayBuffer.empty[Double]
    var i = 0
    while (i <= b) {
      val v     = raw(i)
      val heavy = i + 1 <= b && raw(i + 1) == v
      if (edgeBuf.isEmpty || edgeBuf.last < v) edgeBuf += v
      if (heavy && edgeBuf.last == v) edgeBuf += Math.nextUp(v)
      while (i <= b && raw(i) == v) i += 1
    }
    if (edgeBuf.last <= sorted(n - 1)) edgeBuf += Math.nextUp(sorted(n - 1))
    val edges   = edgeBuf.toArray
    val nb      = edges.length - 1
    val counts  = new Array[Double](nb)
    val sums    = new Array[Double](nb)
    var bi = 0
    var j  = 0
    while (j < n) {
      while (bi < nb - 1 && sorted(j) >= edges(bi + 1)) bi += 1
      counts(bi) += 1; sums(bi) += sorted(j)
      j += 1
    }
    new Histogram(edges, counts, sums, n.toDouble)
  }
}

/** Sum-product-network-lite nodes. Scopes are sets of column indices over the
  * training matrix (predicate columns 0..d-1, aggregation column d).
  */
sealed trait SpnNode extends Serializable { def rows: Int }
final case class SpnLeaf(col: Int, hist: Histogram, rows: Int) extends SpnNode
final case class SpnProduct(children: Array[SpnNode], rows: Int) extends SpnNode
final case class SpnSum(weights: Array[Double], children: Array[SpnNode], rows: Int) extends SpnNode

/** DeepDB substitute (Sec 5.5 / Table 2). DeepDB learns a relational
  * sum-product network from a sample of the data and answers COUNT/SUM/AVG as
  * expectations over the model. This lite version keeps the structure-learning
  * recipe — product splits over near-independent column groups (|pearson| <
  * threshold), sum splits by 2-means row clustering, equi-depth histogram
  * leaves — which preserves DeepDB's characteristic failure mode: accuracy
  * decays when predicates correlate across many dimensions, and more training
  * data does not fix model-structure error.
  */
final class DeepDbLiteSynopsis(
    val root: SpnNode,
    val totalRows: Long,
    val trainRows: Int,
    val aggCol: Int,
) extends Synopsis with Serializable {

  def storageBytes: Long = {
    def size(n: SpnNode): Long = n match {
      case SpnLeaf(_, h, _)      => (h.edges.length + h.counts.length * 2L) * 8L
      case SpnProduct(cs, _)     => cs.map(size).sum + 16L
      case SpnSum(ws, cs, _)     => cs.map(size).sum + ws.length * 8L + 16L
    }
    size(root)
  }

  /** Returns (P(pred), E[a · 1(pred)]) for the subtree. `ea` is NaN for
    * subtrees whose scope excludes the aggregation column.
    */
  private def eval(node: SpnNode, q: Rect): (Double, Double) = node match {
    case SpnLeaf(col, hist, _) =>
      if (col == aggCol) (1.0, hist.mean)
      else (hist.prob(q.lo(col), q.hi(col)), Double.NaN)
    case SpnProduct(children, _) =>
      var p = 1.0; var eaChild = Double.NaN; var pOthers = 1.0
      for (c <- children) {
        val (pc, eac) = eval(c, q)
        p *= pc
        if (!eac.isNaN) eaChild = eac else pOthers *= pc
      }
      (p, if (eaChild.isNaN) Double.NaN else eaChild * pOthers)
    case SpnSum(weights, children, _) =>
      var p = 0.0; var ea = 0.0; var hasEa = false
      for (i <- children.indices) {
        val (pc, eac) = eval(children(i), q)
        p += weights(i) * pc
        if (!eac.isNaN) { ea += weights(i) * eac; hasEa = true }
      }
      (p, if (hasEa) ea else Double.NaN)
  }

  def answer(q: Rect, agg: Agg): Estimate = {
    val (p, ea) = eval(root, q)
    agg match {
      case Agg.Count => Estimate(totalRows * p, Double.NaN, skipRate = 1.0)
      case Agg.Sum   => Estimate(totalRows * ea, Double.NaN, skipRate = 1.0)
      case Agg.Avg   => Estimate(if (p <= 0) Double.NaN else ea / p, Double.NaN, skipRate = 1.0)
      case other     => Estimate(Double.NaN, Double.NaN) // MIN/MAX not modeled
    }
  }
}

object DeepDbLite {
  /** Learns the SPN from `rows` (columns = predicate columns then agg column).
    * Row clusters of fewer than 512 rows, or 10 levels deep, become product
    * leaves; columns with |pearson| < 0.3 count as independent; histograms
    * have 64 buckets.
    */
  def train(rows: Array[Array[Double]], nCols: Int, seed: Long = 42): SpnNode = {
    val minRows = 512; val corrThreshold = 0.3; val maxDepth = 10; val buckets = 64
    val rnd = new scala.util.Random(seed)

    def leafProduct(idx: Array[Int], scope: Array[Int]): SpnNode = {
      val leaves: Array[SpnNode] =
        scope.map(c => SpnLeaf(c, Histogram.build(idx.map(rows(_)(c)), buckets), idx.length))
      if (leaves.length == 1) leaves(0) else SpnProduct(leaves, idx.length)
    }

    def corr(idx: Array[Int], c1: Int, c2: Int): Double = {
      val sub = if (idx.length > 2000) Array.fill(2000)(idx(rnd.nextInt(idx.length))) else idx
      var s1 = 0.0; var s2 = 0.0; var s11 = 0.0; var s22 = 0.0; var s12 = 0.0
      for (i <- sub) {
        val x = rows(i)(c1); val y = rows(i)(c2)
        s1 += x; s2 += y; s11 += x * x; s22 += y * y; s12 += x * y
      }
      val n  = sub.length
      val vx = s11 / n - (s1 / n) * (s1 / n)
      val vy = s22 / n - (s2 / n) * (s2 / n)
      if (vx <= 0 || vy <= 0) 0.0
      else (s12 / n - (s1 / n) * (s2 / n)) / math.sqrt(vx * vy)
    }

    /** Connected components of the |corr| >= threshold graph over the scope. */
    def independentGroups(idx: Array[Int], scope: Array[Int]): Array[Array[Int]] = {
      val comp = scope.indices.toArray
      def find(x: Int): Int = if (comp(x) == x) x else { comp(x) = find(comp(x)); comp(x) }
      for (i <- scope.indices; j <- i + 1 until scope.length)
        if (math.abs(corr(idx, scope(i), scope(j))) >= corrThreshold) comp(find(i)) = find(j)
      scope.indices.groupBy(find).values.map(_.map(scope).toArray).toArray
    }

    /** Two-means over standardized scope columns; returns cluster labels.
      * Standardized vectors are materialized once — clustering dominates
      * training time at bench scale.
      */
    def cluster(idx: Array[Int], scope: Array[Int]): Array[Int] = {
      val nr = idx.length
      val d  = scope.length
      val means = scope.map(c => idx.map(rows(_)(c)).sum / nr)
      val sds = scope.zipWithIndex.map { case (c, ci) =>
        val v = idx.map(i => { val dd = rows(i)(c) - means(ci); dd * dd }).sum / nr
        math.max(1e-9, math.sqrt(v))
      }
      val std = Array.ofDim[Double](nr, d)
      var r = 0
      while (r < nr) {
        var ci = 0
        while (ci < d) { std(r)(ci) = (rows(idx(r))(scope(ci)) - means(ci)) / sds(ci); ci += 1 }
        r += 1
      }
      var cA = std(rnd.nextInt(nr)).clone()
      var cB = std(rnd.nextInt(nr)).clone()
      val labels = new Array[Int](nr)
      def d2(a: Array[Double], b: Array[Double]): Double = {
        var s = 0.0; var i = 0
        while (i < a.length) { val dd = a(i) - b(i); s += dd * dd; i += 1 }
        s
      }
      var it = 0
      while (it < 5) {
        var i = 0
        while (i < nr) { labels(i) = if (d2(std(i), cA) <= d2(std(i), cB)) 0 else 1; i += 1 }
        val sumA = new Array[Double](d); val sumB = new Array[Double](d)
        var nA = 0; var nB = 0
        i = 0
        while (i < nr) {
          val tgt = if (labels(i) == 0) { nA += 1; sumA } else { nB += 1; sumB }
          var ci = 0
          while (ci < d) { tgt(ci) += std(i)(ci); ci += 1 }
          i += 1
        }
        if (nA == 0 || nB == 0) return labels
        cA = sumA.map(_ / nA); cB = sumB.map(_ / nB)
        it += 1
      }
      labels
    }

    def rec(idx: Array[Int], scope: Array[Int], depth: Int): SpnNode = {
      if (scope.length == 1)
        return SpnLeaf(scope(0), Histogram.build(idx.map(rows(_)(scope(0))), buckets), idx.length)
      if (idx.length < minRows || depth >= maxDepth) return leafProduct(idx, scope)
      val groups = independentGroups(idx, scope)
      if (groups.length > 1)
        SpnProduct(groups.map(g => rec(idx, g.sorted, depth + 1)), idx.length)
      else {
        val labels = cluster(idx, scope)
        val gA     = idx.indices.filter(labels(_) == 0).map(idx).toArray
        val gB     = idx.indices.filter(labels(_) == 1).map(idx).toArray
        if (gA.isEmpty || gB.isEmpty) leafProduct(idx, scope)
        else {
          val wA = gA.length.toDouble / idx.length
          SpnSum(Array(wA, 1 - wA),
                 Array(rec(gA, scope, depth + 1), rec(gB, scope, depth + 1)), idx.length)
        }
      }
    }

    rec(rows.indices.toArray, (0 until nCols).toArray, 0)
  }

  /** Trains on a uniform sample of min(`trainRows`, N) rows, drawn in the one
    * scan that also counts N. Like every other synopsis it keeps only the N
    * rows with no null field and no NaN, and counts the rest as dropped.
    */
  def build(df: DataFrame, predCols: Seq[String], aggCol: String, trainRows: Int,
            seed: Long = 42): (DeepDbLiteSynopsis, Long) = {
    require(trainRows >= 1, s"training sample size $trainRows must be at least 1")
    val t0   = System.nanoTime()
    val p    = PassBuilder.prepare(df, predCols, aggCol, seed, optSampleSize = 0, uniformSize = trainRows)
    val s    = p.uniform
    val d    = predCols.length
    val mat  = Array.tabulate(s.size)(i => Array.tabulate(d + 1)(j => if (j < d) s.columns(j)(i) else s.values(i)))
    val root = train(mat, d + 1, seed = seed)
    (new DeepDbLiteSynopsis(root, p.totalRows, mat.length, d), (System.nanoTime() - t0) / 1000000L)
  }
}

package repro.core

import scala.collection.mutable.ArrayBuffer

/** KD-tree partitioners for d > 1 (Sec 4.4 / Sec 5.4).
  *
  * Both variants split a node on the per-attribute medians of its own points,
  * giving fanout 2^d. KD-PASS greedily expands the leaf containing the
  * (approximate) maximum-variance query, keeping leaf depths within a skew of
  * 2 as in the paper's experiments; KD-US (the baseline) always expands the
  * shallowest leaf. Construction runs on the driver over the optimization
  * sample and lays the finished tree out as a [[FlatTree]] skeleton: children
  * in mask order (bit j = `x(j) >= median j`, as `FlatTree.leafOf` routes),
  * leaves numbered in DFS order, no statistics yet.
  */
object KdTree {

  /** A construction node over the optimization sample. */
  private final class KdNode(val rect: Rect, val depth: Int) {
    var children: Array[KdNode] = _
    var points: Array[Int]      = _
    var score: Double           = 0.0
  }

  /** Approximate max-variance score of a leaf's point set, used to pick the
    * next leaf to expand: SUM/COUNT use the median-split oracle (Appendix A.3
    * generalized to d dims), AVG the δm-cell kd subdivision (Appendix A.4,
    * "second algorithm").
    */
  private def leafScore(pts: Array[Array[Double]], vals: Array[Double],
                        idx: Array[Int], agg: Agg, dim: Int, deltaM: Int): Double = {
    val n = idx.length
    if (n <= 1) return 0.0
    agg match {
      case Agg.Count => MaxVar.countExact(n)
      case Agg.Sum =>
        val sorted = IndexSort.sortBy(idx)(pts(_)(dim))
        def half(lo: Int, hi: Int): Double = {
          var s1 = 0.0; var s2 = 0.0; var i = lo
          while (i < hi) { val a = vals(sorted(i)); s1 += a; s2 += a * a; i += 1 }
          math.max(0.0, s2 - s1 * s1 / n)
        }
        val mid = n / 2
        math.max(half(0, mid), half(mid, n))
      case Agg.Avg =>
        if (n < 2 * deltaM) return 0.0
        // subdivide into cells of >= deltaM points by cycling median splits;
        // score each cell by (n·Σt² − (Σt)²) / (n·|cell|²), return the max.
        var best = 0.0
        def rec(cell: Array[Int], d: Int): Unit = {
          if (cell.length < 2 * deltaM) {
            var s1 = 0.0; var s2 = 0.0
            cell.foreach { i => val a = vals(i); s1 += a; s2 += a * a }
            val c = cell.length.toDouble
            if (c > 0) best = math.max(best, math.max(0.0, (n * s2 - s1 * s1) / (n * c * c)))
          } else {
            val sorted = IndexSort.sortBy(cell)(pts(_)(d % pts(cell(0)).length))
            val mid    = sorted.length / 2
            rec(sorted.slice(0, mid), d + 1)
            rec(sorted.slice(mid, sorted.length), d + 1)
          }
        }
        rec(idx, 0)
        best
      case other => throw new IllegalArgumentException(s"no kd score for $other")
    }
  }

  private def expand(node: KdNode, pts: Array[Array[Double]], vals: Array[Double],
                     agg: Agg, deltaM: Int): Array[KdNode] = {
    val d = node.rect.dims
    // per-dimension median of the node's own points ("median of each attribute")
    val splits = Array.tabulate(d) { j =>
      val coords = node.points.map(pts(_)(j))
      java.util.Arrays.sort(coords)
      coords(coords.length / 2)
    }
    val buckets = Array.fill(1 << d)(ArrayBuffer.empty[Int])
    node.points.foreach { i =>
      var mask = 0
      var j    = 0
      while (j < d) { if (pts(i)(j) >= splits(j)) mask |= (1 << j); j += 1 }
      buckets(mask) += i
    }
    val children = Array.tabulate(1 << d) { mask =>
      val lo = node.rect.lo.clone(); val hi = node.rect.hi.clone()
      var j = 0
      while (j < d) {
        if ((mask & (1 << j)) == 0) hi(j) = splits(j) else lo(j) = splits(j)
        j += 1
      }
      val c = new KdNode(Rect(lo, hi), node.depth + 1)
      c.points = buckets(mask).toArray
      c.score = leafScore(pts, vals, c.points, agg, node.depth % d, deltaM)
      c
    }
    node.children = children
    node.points = null
    children
  }

  /** A node is splittable when all its per-dim medians produce at least one
    * non-trivial cut (otherwise every point is identical and splitting loops).
    */
  private def splittable(node: KdNode, pts: Array[Array[Double]], fanout: Int): Boolean =
    node.points != null && node.points.length >= math.max(2, fanout) && {
      val d = node.rect.dims
      (0 until d).exists { j =>
        val c = node.points.map(pts(_)(j))
        c.min < c.max
      }
    }

  /** KD-PASS: greedy expansion of the max-approximate-variance leaf until `k`
    * leaves, with leaf depths kept within a skew of 2 of the shallowest
    * still-splittable leaf (the paper's setting).
    */
  def buildGreedy(pts: Array[Array[Double]], vals: Array[Double], k: Int, agg: Agg,
                  rootRect: Rect): FlatTree = {
    val deltaM = math.max(4, pts.length / (4 * math.max(1, k)))
    grow(pts, vals, k, rootRect, agg, deltaM) { cands =>
      val minD = cands.map(_.depth).min
      cands.filter(_.depth <= minD + 1).maxBy(n => (n.score, n.points.length.toDouble))
    }
  }

  /** KD-US's partitioning: always expand the shallowest splittable leaf (ties
    * broken by insertion order), yielding a balanced tree of `<= k` leaves.
    */
  def buildBalanced(pts: Array[Array[Double]], vals: Array[Double], k: Int, rootRect: Rect): FlatTree =
    grow(pts, vals, k, rootRect, Agg.Count, 1)(_.minBy(_.depth))

  /** The one expansion loop: while another split keeps the tree within `k`
    * leaves, `pick` one of the splittable leaves (in insertion order) and
    * split it.
    */
  private def grow(pts: Array[Array[Double]], vals: Array[Double], k: Int, rootRect: Rect, agg: Agg,
                   deltaM: Int)(pick: ArrayBuffer[KdNode] => KdNode): FlatTree = {
    require(pts.nonEmpty, "no optimization sample")
    val fanout = 1 << rootRect.dims
    val root   = new KdNode(rootRect, 0)
    root.points = pts.indices.toArray
    root.score = leafScore(pts, vals, root.points, agg, 0, deltaM)
    val cands   = ArrayBuffer(root).filter(splittable(_, pts, fanout))
    var nLeaves = 1
    while (nLeaves + fanout - 1 <= k && cands.nonEmpty) {
      val p = pick(cands)
      cands -= p
      cands ++= expand(p, pts, vals, agg, deltaM).filter(splittable(_, pts, fanout))
      nLeaves += fanout - 1
    }
    FlatTree.layout(root)(_.rect, n => if (n.children == null) Nil else n.children.toSeq)
  }
}

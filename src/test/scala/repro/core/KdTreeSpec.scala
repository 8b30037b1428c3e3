package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** KD-tree partitioner tests: tiling invariants, fanout, depth-skew, DFS leaf
  * numbering, and assignment consistency.
  */
class KdTreeSpec extends AnyFunSuite {

  private def randPoints(n: Int, d: Int, seed: Long): (Array[Array[Double]], Array[Double]) = {
    val rnd = new scala.util.Random(seed)
    val pts = Array.fill(n)(Array.fill(d)(rnd.nextDouble() * 10))
    val vals = pts.map(p => p.sum + rnd.nextGaussian())
    (pts, vals)
  }

  private def rootRect(d: Int): Rect =
    Rect(Array.fill(d)(0.0), Array.fill(d)(10.0 + 1e-9))

  /** Depth of every leaf, indexed by leaf id. */
  private def leafDepths(root: TreeNode): Array[Int] = {
    def rec(n: TreeNode, depth: Int): Iterator[Int] =
      if (n.isLeaf) Iterator.single(depth) else n.children.iterator.flatMap(rec(_, depth + 1))
    rec(root, 0).toArray
  }

  for (d <- 1 to 3; seed <- 0 until 3) {
    test(s"balanced kd tree tiles space and assigns consistently (d=$d seed=$seed)") {
      val (pts, vals) = randPoints(600, d, seed)
      val root        = KdTree.buildBalanced(pts, vals, k = 16, rootRect(d))
      val leaves      = root.leaves.toArray // DFS order = leaf-id order
      assert(leaves.length <= 16 && leaves.length > 1)
      // every training point routes to a leaf whose rect contains it
      for (p <- pts.take(200)) {
        val id = root.leafOf(p)
        assert(leaves(id).bounds.contains(p), s"point ${p.toSeq} not in leaf $id")
      }
      // tree invariants
      assert(leaves.map(_.leafId).toSeq == leaves.indices)
      for (n <- root.root.preorder if !n.isLeaf) {
        val cs = n.children
        assert(cs.length == (1 << d), "fanout must be 2^d")
        for (c <- cs) assert(n.bounds.containsRect(c.bounds))
        for (i <- cs.indices; j <- i + 1 until cs.length)
          assert(cs(i).bounds.disjoint(cs(j).bounds))
      }
    }
  }

  for (agg <- Seq(Agg.Sum, Agg.Avg, Agg.Count); seed <- 0 until 2) {
    test(s"greedy kd expansion respects k and depth skew ($agg seed=$seed)") {
      val (pts, vals) = randPoints(800, 2, seed + 10)
      val root        = KdTree.buildGreedy(pts, vals, k = 32, agg, rootRect(2))
      assert(root.leaves.size <= 32)
      val depths = leafDepths(root.root)
      assert(depths.max - depths.min <= 2, s"depth skew ${depths.max - depths.min} > 2")
    }
  }

  test("leaf ids are contiguous DFS ranges within subtrees") {
    val (pts, vals) = randPoints(500, 2, 3)
    val root        = KdTree.buildGreedy(pts, vals, k = 16, Agg.Sum, rootRect(2))
    for (n <- root.root.preorder) {
      val ids = n.leaves.map(_.leafId).toSeq
      assert(ids == (n.leafLo to n.leafHi))
    }
  }

  test("greedy expansion prefers the high-variance region for SUM") {
    // values explode only in the x<5, y<5 quadrant: most leaves should land there
    val rnd  = new scala.util.Random(7)
    val pts  = Array.fill(2000)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val vals = pts.map(p => if (p(0) < 5 && p(1) < 5) math.exp(rnd.nextGaussian() * 2) * 100 else 1.0)
    val leaves = KdTree.buildGreedy(pts, vals, k = 24, Agg.Sum, rootRect(2)).leaves.toArray
    val hot = leaves.count(l => l.bounds.lo(0) < 5 && l.bounds.lo(1) < 5 &&
                                l.bounds.hi(0) <= 5.5 && l.bounds.hi(1) <= 5.5)
    val cold = leaves.length - hot
    assert(hot >= cold, s"hot=$hot cold=$cold: expansion ignored the variance hotspot")
  }

  test("degenerate data (all points identical) terminates without splitting") {
    val pts  = Array.fill(100)(Array(1.0, 1.0))
    val vals = Array.fill(100)(5.0)
    val root = KdTree.buildGreedy(pts, vals, k = 8, Agg.Sum, rootRect(2))
    assert(root.leaves.size == 1)
  }

  test("assign routes out-of-range points to a boundary leaf without crashing") {
    val (pts, vals) = randPoints(300, 2, 5)
    val root        = KdTree.buildBalanced(pts, vals, k = 8, rootRect(2))
    val id          = root.leafOf(Array(-100.0, 100.0))
    assert(id >= 0 && id < root.leaves.size)
  }
}

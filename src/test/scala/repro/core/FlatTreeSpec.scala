package repro.core

import java.lang.Double.{doubleToLongBits => bits}

import org.scalatest.funsuite.AnyFunSuite

/** The flat preorder MCF (`FlatTree.mcf`, and `PartitionTree.mcf` over it)
  * against the recursive reference (`ReferenceMcf`): the same cover, partial
  * and 0-variance nodes, in the same order, the same `visited`, and the
  * cover's aggregate folded as over the reference cover, on 1-D and kd
  * trees, with and without the 0-variance rule.
  */
class FlatTreeSpec extends AnyFunSuite {

  private val Inf = Double.PositiveInfinity

  /** Probe queries: random, with endpoints on split edges, empty (lo == hi),
    * whole-space, disjoint from the data, and NaN-bounded.
    */
  private def probes(root: TreeNode, rnd: scala.util.Random, n: Int): Seq[Rect] = {
    val d     = root.bounds.dims
    val box   = root.bounds
    val edges = Array.tabulate(d)(j => root.preorder.flatMap(x => Iterator(x.bounds.lo(j), x.bounds.hi(j))).toArray.distinct)
    def coord(j: Int): Double = rnd.nextInt(4) match {
      case 0 | 1 => edges(j)(rnd.nextInt(edges(j).length))
      case _     => box.lo(j) + rnd.nextDouble() * (box.hi(j) - box.lo(j))
    }
    val random = Seq.fill(n) {
      val a = Array.tabulate(d)(coord)
      val b = Array.tabulate(d)(coord)
      Rect(Array.tabulate(d)(j => math.min(a(j), b(j))), Array.tabulate(d)(j => math.max(a(j), b(j))))
    }
    val empty    = Seq.fill(5) { val a = Array.tabulate(d)(coord); Rect(a, a.clone()) }
    val whole    = Rect(Array.fill(d)(-Inf), Array.fill(d)(Inf))
    val disjoint = Rect(Array.tabulate(d)(j => box.hi(j) + 1), Array.tabulate(d)(j => box.hi(j) + 5))
    val nan = for (j <- 0 until d; side <- Seq(true, false)) yield {
      val lo = Array.fill(d)(-Inf); val hi = Array.fill(d)(Inf)
      if (side) lo(j) = Double.NaN else hi(j) = Double.NaN
      Rect(lo, hi)
    }
    random ++ empty ++ Seq(whole, disjoint, box) ++ nan
  }

  private def assertSameFrontier(f: Frontier, r: ReferenceMcf.Result, what: String): Unit = {
    def same(a: Seq[TreeNode], b: Seq[TreeNode]) = a.length == b.length && a.zip(b).forall { case (x, y) => x == y }
    assert(same(f.cover, r.cover), s"$what: cover")
    assert(same(f.partial, r.partial), s"$what: partial")
    assert(same(f.zeroVar, r.zeroVar), s"$what: zeroVar")
    assert(f.visited == r.visited, s"$what: visited ${f.visited} vs ${r.visited}")
    // the cover aggregate: bit-equal to an in-order fold over the reference cover
    val c = r.cover
    assert(f.coverCount == c.map(_.count).sum, s"$what: coverCount")
    assert(bits(f.coverSum) == bits(c.foldLeft(0.0)(_ + _.sum)), s"$what: coverSum ${f.coverSum}")
    assert(bits(f.coverMin) == bits(c.foldLeft(Inf)((m, n) => math.min(m, n.min))), s"$what: coverMin")
    assert(bits(f.coverMax) == bits(c.foldLeft(-Inf)((m, n) => math.max(m, n.max))), s"$what: coverMax")
  }

  /** Checks `root` on its probes, through the adapter and through one
    * frontier reused for every query.
    */
  private def checkTree(root: TreeNode, seed: Long): Unit = {
    val t      = root.tree
    val reused = new Frontier
    var zv     = 0
    for (q <- probes(root, new scala.util.Random(seed), 300); rule <- Seq(false, true)) {
      val ref = ReferenceMcf.mcf(root, q, rule)
      zv += ref.zeroVar.length
      assertSameFrontier(PartitionTree.mcf(root, q, rule), ref, s"q=$q rule=$rule")
      assertSameFrontier(t.mcf(q, rule, reused), ref, s"reused frontier q=$q rule=$rule")
    }
    assert(zv > 0, "no probe reached a 0-variance node")
  }

  for (seed <- 0 until 4) {
    test(s"flat MCF equals the recursive reference on 1-D trees (seed=$seed)") {
      val (ps, as) = TestSynopses.genGrid(600, 1, 40, seed)
      val cuts     = Array.tabulate(12)(j => (j * 3 + seed).toDouble)
      checkTree(TestSynopses.build1D(ps.map(_(0)), as, cuts, samplesPerLeaf = 5, seed = seed).root, seed)
    }
  }

  for (d <- 2 to 3; greedy <- Seq(true, false)) {
    test(s"flat MCF equals the recursive reference on kd trees (d=$d greedy=$greedy)") {
      val side     = 16
      val (ps, vs) = TestSynopses.genGrid(1500, d, side, d * 7L)
      val box      = Rect(Array.fill(d)(0.0), Array.fill(d)(side.toDouble))
      val syn      = TestSynopses.buildKd(ps, vs, box, k = 64, greedy, samplesPerLeaf = 4)
      checkTree(syn.root, d * 10L + (if (greedy) 1 else 0))
    }
  }

  /** Trees of unusual shape, each with its rows: a root that is a leaf;
    * 1-D leaves of zero width (duplicate cuts, a cut at the box's lower edge)
    * and empty ones; and a kd tree over degenerate data (one constant
    * dimension, three distinct values in the other). The values are integers,
    * so every sum is exact in any order.
    */
  private val edgeShapes = {
    val rnd  = new scala.util.Random(5)
    val xs   = Array.fill(200)(Array(rnd.nextInt(7).toDouble))
    val vs   = Array.fill(200)(rnd.nextInt(50) - 20.0)
    val pts2 = Array.fill(300)(Array(rnd.nextInt(3).toDouble, 1.0))
    val vs2  = pts2.map(p => p(0) * 10 + rnd.nextInt(5))
    Seq(
      ("1-D, no cuts", PartitionTree.build1D(Array.empty, Rect.range(0, 10)), xs, vs),
      ("1-D, duplicate cuts and a cut at the lower edge",
       PartitionTree.build1D(Array(0.0, 0.0, 3.0, 3.0, 3.0, 7.0), Rect.range(0, 10)), xs, vs),
      ("kd, degenerate data", KdTree.buildGreedy(pts2, vs2, k = 16, Agg.Sum, Rect(Array(0.0, 0.0), Array(4.0, 4.0))),
       pts2, vs2),
    )
  }

  for ((shape, skeleton, pts, vals) <- edgeShapes) {
    test(s"an edge-shaped tree rolls up, spans, routes and answers MCF as the reference ($shape)") {
      val (tree, _) = TestSynopses.populate(skeleton, pts, vals)
      val leaves    = tree.leaves
      if (shape == "1-D, no cuts") assert(tree.size == 1 && tree.root.isLeaf)
      else {
        def zeroWidth(r: Rect) = r.lo.indices.exists(j => r.lo(j) == r.hi(j))
        assert(leaves.exists(_.count == 0) && leaves.exists(l => zeroWidth(l.bounds)), "no empty, zero-width leaf")
      }
      // every node's statistics: an in-order fold over its leaves
      for (n <- tree.root.preorder) {
        val ls = n.leaves.toSeq
        assert(n.count == ls.map(_.count).sum, s"${n.bounds}: count")
        assert(bits(n.sum) == bits(ls.foldLeft(0.0)(_ + _.sum)), s"${n.bounds}: sum")
        assert(bits(n.min) == bits(ls.foldLeft(Inf)((m, l) => math.min(m, l.min))), s"${n.bounds}: min")
        assert(bits(n.max) == bits(ls.foldLeft(-Inf)((m, l) => math.max(m, l.max))), s"${n.bounds}: max")
        assert(ls.map(_.leafId) == (n.leafLo to n.leafHi), s"${n.bounds}: leaf span")
      }
      // a leaf's lower corner routes to it, unless the leaf has zero width,
      // when it routes to the leaf that holds the corner
      for (l <- leaves) {
        val corner = l.bounds.lo
        if (l.bounds.contains(corner)) assert(tree.leafOf(corner) == l.leafId, s"corner of ${l.bounds}")
        else if (tree.root.bounds.contains(corner))
          assert(leaves(tree.leafOf(corner)).bounds.contains(corner), s"corner of zero-width ${l.bounds}")
      }
      val reused = new Frontier
      for (q <- probes(tree.root, new scala.util.Random(7), 100); rule <- Seq(false, true))
        assertSameFrontier(tree.mcf(q, rule, reused), ReferenceMcf.mcf(tree.root, q, rule), s"q=$q rule=$rule")
    }
  }

  test("the flat form is built once per tree, and adapter frontiers are independent") {
    val (cs, as) = TestSynopses.genData(300, 3)
    val syn      = TestSynopses.build1D(cs, as, Array(20.0, 40.0, 60.0, 80.0), samplesPerLeaf = 10)
    val (q1, q2) = (Rect.range(10, 50), Rect.range(55, 95))
    val f1       = PartitionTree.mcf(syn.root, q1)
    val f2       = PartitionTree.mcf(syn.root, q2)
    assert(syn.root.tree eq syn.tree)
    assert(f1 ne f2)
    assertSameFrontier(f1, ReferenceMcf.mcf(syn.root, q1, zeroVarRule = false), "first of two")
    assertSameFrontier(f2, ReferenceMcf.mcf(syn.root, q2, zeroVarRule = false), "second of two")
  }
}

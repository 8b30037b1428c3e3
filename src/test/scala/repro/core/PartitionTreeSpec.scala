package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tree-construction invariants (Definition 3.1) and MCF classification
  * correctness against brute-force leaf classification.
  */
class PartitionTreeSpec extends AnyFunSuite {

  private def synopsisFor(seed: Long, n: Int = 500, k: Int = 8): PassSynopsis = {
    val (cs, as) = TestSynopses.genData(n, seed)
    val sorted   = cs.sorted
    val cuts     = Array.tabulate(k - 1)(j => sorted(((j + 1).toLong * n / k).toInt))
    TestSynopses.build1D(cs, as, cuts.distinct, samplesPerLeaf = 20, seed = seed)
  }

  for (seed <- 0 until 6) {
    test(s"build1D satisfies the Definition 3.1 invariants (seed=$seed)") {
      val syn = synopsisFor(seed)
      assert(TreeInvariants.violations(syn.root).isEmpty)
    }

    test(s"root statistics equal whole-dataset statistics (seed=$seed)") {
      val (cs, as) = TestSynopses.genData(500, seed)
      val syn      = synopsisFor(seed)
      assert(syn.root.count == cs.length)
      assert(math.abs(syn.root.sum - as.sum) < 1e-6 * (1 + as.sum.abs))
      assert(syn.root.min == as.min && syn.root.max == as.max)
    }
  }

  test("leaf ids are DFS-contiguous within every subtree") {
    val syn = synopsisFor(3)
    for (node <- syn.root.preorder) {
      val ids = node.leaves.map(_.leafId).toSeq
      assert(ids == (node.leafLo to node.leafHi), s"node ${node.bounds}: $ids")
    }
  }

  for (seed <- 0 until 8) {
    test(s"MCF classification matches brute-force leaf classification (seed=$seed)") {
      val syn = synopsisFor(seed + 10)
      val rnd = new scala.util.Random(seed)
      for (_ <- 0 until 25) {
        val a = rnd.nextDouble() * 110 - 5
        val b = a + rnd.nextDouble() * 60
        val q = Rect.range(a, b)
        val f = PartitionTree.mcf(syn.root, q)
        // every leaf must be accounted for exactly once
        for (l <- syn.leaves) {
          val inCover   = f.cover.exists(c => c.leafLo <= l.leafId && l.leafId <= c.leafHi)
          val inPartial = f.partial.contains(l)
          if (l.bounds.disjoint(q)) assert(!inCover && !inPartial, s"disjoint leaf ${l.bounds} returned")
          else if (q.containsRect(l.bounds)) assert(inCover && !inPartial, s"covered leaf ${l.bounds} missing")
          else if (l.count > 0) assert(inPartial && !inCover, s"partial leaf ${l.bounds} missing")
        }
        // cover nodes must be fully inside the query, partial ones leaves
        assert(f.cover.forall(c => q.containsRect(c.bounds)))
        assert(f.partial.forall(_.isLeaf))
        assert(f.visited >= 1 && f.visited <= syn.root.preorder.size)
      }
    }
  }

  test("query covering everything returns one covered node (the root)") {
    val syn = synopsisFor(1)
    val f   = PartitionTree.mcf(syn.root, Rect.range(Double.NegativeInfinity, Double.PositiveInfinity))
    assert(f.cover.map(n => n.leafHi - n.leafLo + 1).sum == syn.leaves.length)
    assert(f.partial.isEmpty)
    assert(f.visited <= 3, "MCF should stop at the root for an all-covering query")
  }

  test("query disjoint from the data returns nothing") {
    val syn = synopsisFor(2)
    val f   = PartitionTree.mcf(syn.root, Rect.range(-1000, -999))
    assert(f.cover.isEmpty && f.partial.isEmpty)
  }

  test("0-variance rule returns constant-valued nodes early for AVG") {
    // constant region [0, 50): every leaf there has min == max
    val n  = 400
    val cs = Array.tabulate(n)(i => i * 100.0 / n)
    val as = cs.map(c => if (c < 50) 7.0 else c)
    val syn = TestSynopses.build1D(cs, as, Array(12.5, 25.0, 37.5, 50.0, 75.0),
                                   samplesPerLeaf = 10, seed = 4)
    val q = Rect.range(10.0, 60.0)
    val f = PartitionTree.mcf(syn.root, q, zeroVarRule = true)
    assert(f.zeroVar.nonEmpty, "expected at least one zero-variance node")
    assert(f.zeroVar.forall(z => z.min == z.max))
    // without the rule the same nodes come back as partial/cover only
    val f2 = PartitionTree.mcf(syn.root, q, zeroVarRule = false)
    assert(f2.zeroVar.isEmpty)
  }

  test("invariantViolations flags corrupted statistics") {
    val syn = synopsisFor(5)
    syn.tree.count(syn.leaves(0).ix) += 1
    assert(TreeInvariants.violations(syn.root).nonEmpty)
  }

  for (seed <- 0 until 6) {
    test(s"1-D router counts the cuts at or below the point (seed=$seed)") {
      val rnd  = new scala.util.Random(seed)
      val (lo, hi) = (rnd.nextInt(50).toDouble, 60.0 + rnd.nextInt(50))
      // integer-valued cuts so duplicates are common; one cut at the data minimum
      val cuts = (lo +: Array.fill(rnd.nextInt(12))(lo + rnd.nextInt((hi - lo).toInt))).sorted
      val root = PartitionTree.build1D(cuts, Rect.range(lo, hi))
      val probes = cuts ++ cuts.map(Math.nextDown) ++ Array(lo, Math.nextDown(hi), lo - 5, hi + 5, Double.NaN) ++
        Array.fill(200)(lo + rnd.nextDouble() * (hi - lo))
      for (x <- probes)
        assert(root.leafOf(Array(x)) == cuts.count(_ <= x), s"x=$x cuts=${cuts.toSeq}")
    }
  }

  for (d <- 1 to 3; greedy <- Seq(true, false)) {
    test(s"kd router sends every in-box point to the leaf that contains it (d=$d greedy=$greedy)") {
      val rnd  = new scala.util.Random(d * 10 + (if (greedy) 1 else 0))
      // integer coordinates: medians repeat and often equal a node's lower edge
      val pts  = Array.fill(400)(Array.fill(d)(rnd.nextInt(20).toDouble))
      val vals = pts.map(p => p.sum + rnd.nextGaussian())
      val box  = Rect(Array.fill(d)(0.0), Array.fill(d)(20.0))
      val root =
        if (greedy) KdTree.buildGreedy(pts, vals, k = 32, Agg.Sum, box)
        else KdTree.buildBalanced(pts, vals, k = 32, box)
      val leaves = root.leaves.toArray
      // random points, the training points, and every leaf's lower corner (on splits)
      val probes = Array.fill(300)(Array.fill(d)(rnd.nextDouble() * 20)) ++ pts ++
        leaves.map(_.bounds.lo).filter(box.contains)
      for (x <- probes) {
        val id = root.leafOf(x)
        assert(leaves(id).bounds.contains(x), s"point ${x.toSeq} routed to ${leaves(id).bounds}")
      }
    }
  }
}

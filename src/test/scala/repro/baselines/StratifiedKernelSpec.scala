package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Each sampling synopsis is a special case of the one stratified estimator
  * (`Stratified`): checked by building them straight from their constructors
  * over in-memory data, without Spark.
  */
class StratifiedKernelSpec extends AnyFunSuite {

  private val (cs, as) = TestSynopses.genData(800, 11)
  private val n        = cs.length.toLong
  private val estimable = Seq(Agg.Sum, Agg.Count, Agg.Avg)

  private def queries(seed: Long, count: Int, maxWidth: Double): Seq[Rect] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(count) {
      val a = 5 + rnd.nextDouble() * 85
      Rect.range(a, a + 0.5 + rnd.nextDouble() * maxWidth)
    }
  }

  private def coversNothing(tree: FlatTree, q: Rect): Boolean = PartitionTree.mcf(tree.root, q).cover.isEmpty

  /** Equal, counting two NaNs as equal. */
  private def same(a: Double, b: Double): Boolean = a == b || (a.isNaN && b.isNaN)

  private def assertSame(a: Estimate, b: Estimate, what: String): Unit = {
    assert(same(a.value, b.value), s"$what: value ${a.value} vs ${b.value}")
    assert(same(a.ciHalf, b.ciHalf), s"$what: ciHalf ${a.ciHalf} vs ${b.ciHalf}")
  }

  test("US whose sample is the whole table is exact, with zero SUM/COUNT CI") {
    val us = new UniformSampleSynopsis(LeafSample(Array(cs), as), n)
    for (q <- queries(1, 40, 60); agg <- estimable) {
      val (sum, count, _, _) = TestSynopses.exactStats(cs, as, q)
      val truth = agg match {
        case Agg.Sum   => sum
        case Agg.Count => count.toDouble
        case _         => sum / count
      }
      val est = us.answer(q, agg)
      assert(math.abs(est.value - truth) < 1e-9 * (1 + truth.abs), s"$agg q=$q")
      if (agg != Agg.Avg) assert(est.ciHalf == 0.0, s"$agg q=$q")
    }
  }

  test("ST over PASS leaves answers as PASS for queries that cover no node") {
    val pass = TestSynopses.build1D(cs, as, Array(20.0, 40.0, 60.0, 80.0), samplesPerLeaf = 30,
                                    seed = 2, zeroVarRule = false)
    val st = new StratifiedSampleSynopsis(pass)
    val qs = queries(3, 60, 15).filter(coversNothing(pass.tree, _))
    assert(qs.size > 30)
    var compared = 0
    for (q <- qs; agg <- estimable) {
      val s = st.answer(q, agg)
      // PASS answers an AVG that no sampled row matches from its exact aggregates
      if (!s.value.isNaN) {
        assertSame(s, pass.answer(q, agg), s"$agg q=$q")
        compared += 1
      }
    }
    assert(compared > 100)
  }

  test("ST with one leaf answers as US on the same sample") {
    val pass = TestSynopses.build1D(cs, as, Array.empty, samplesPerLeaf = 60, seed = 4)
    val st   = new StratifiedSampleSynopsis(pass)
    val us   = new UniformSampleSynopsis(pass.samples(0), n)
    for (q <- queries(5, 40, 30); agg <- Agg.all) {
      val (s, u) = (st.answer(q, agg), us.answer(q, agg))
      assertSame(s, u, s"$agg q=$q")
      assert(s.processedSamples == u.processedSamples)
    }
  }

  test("AQP++ with no covered node answers as US on the same sample") {
    val tree = TestSynopses.build1D(cs, as, Array(20.0, 40.0, 60.0, 80.0), samplesPerLeaf = 1).tree
    val rnd  = new scala.util.Random(6)
    val pick = rnd.shuffle(cs.indices.toVector).take(200).toArray
    val sample = LeafSample(Array(pick.map(cs)), pick.map(as))
    val aqp    = new PrecompUniformSynopsis(tree, sample, n)
    val us     = new UniformSampleSynopsis(sample, n)
    val qs  = queries(7, 60, 15).filter(coversNothing(tree, _))
    assert(qs.size > 30)
    for (q <- qs; agg <- estimable) {
      val (a, u) = (aqp.answer(q, agg), us.answer(q, agg))
      assertSame(a, u, s"$agg q=$q")
      assert(a.processedSamples == u.processedSamples)
    }
  }

  test("AQP++ MIN/MAX with no covered row and no matching sampled row is NaN, as US") {
    val tree   = TestSynopses.build1D(cs, as, Array(20.0, 40.0, 60.0, 80.0), samplesPerLeaf = 1).tree
    val sample = LeafSample(Array(Array(10.0, 70.0)), Array(1.0, 2.0))
    val aqp    = new PrecompUniformSynopsis(tree, sample, n)
    val us     = new UniformSampleSynopsis(sample, n)
    // inside leaf [20, 40) but away from both sampled rows, and outside the data
    for (q <- Seq(Rect.range(30, 31), Rect.range(200, 300)); agg <- Seq(Agg.Min, Agg.Max)) {
      val (a, u) = (aqp.answer(q, agg), us.answer(q, agg))
      assert(a.value.isNaN && u.value.isNaN, s"$agg q=$q: AQP++ ${a.value}, US ${u.value}")
      assert(a.lb.isNaN && a.ub.isNaN && a.processedSamples == 2)
    }
    // a covered leaf still answers with its exact extreme
    val leaf = tree.leaves(1) // [20, 40)
    assert(aqp.answer(leaf.bounds, Agg.Min).value == leaf.min)
    assert(aqp.answer(leaf.bounds, Agg.Max).value == leaf.max)
  }
}

package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** The build scans' accumulators without Spark: the priority reservoir and
  * its merge, the per-leaf sample sizes and inclusion frequencies of merged
  * per-partition `LeafStats`, and the rows both scans drop.
  */
class ReservoirSpec extends AnyFunSuite with PropSupport {

  /** Row i has coordinate `xs(i)` and value i, so a kept value names its row. */
  private def offerAll(sink: RowSink[_], xs: Seq[Double]): Unit =
    for ((x, i) <- xs.zipWithIndex) sink.offer(Array(x), i.toDouble)

  private def keptValues(r: PriorityReservoir): Set[Double] = r.smallest()._2.toSet

  test("merged reservoirs keep exactly the rows below the rate plus the k smallest priorities") {
    val gen = for {
      n     <- Gen.choose(0, 200)
      k     <- Gen.choose(0, 12)
      rate  <- Gen.oneOf(0.0, 0.01, 0.1, 0.5)
      parts <- Gen.choose(1, 5)
      seed  <- Gen.choose(0L, 1000000L)
    } yield (n, k, rate, parts, seed)
    checkProp(Prop.forAll(gen) { case (n, k, rate, parts, seed) =>
      val rnd  = new scala.util.Random(seed)
      val prio = Array.fill(n)(rnd.nextDouble())
      val ps   = Array.fill(parts)(new PriorityReservoir(k, rate, 1))
      for (i <- 0 until n) ps(rnd.nextInt(parts)).offer(prio(i), Array(i.toDouble), 0, i.toDouble)
      val merged = ps.head
      ps.tail.foreach(merged.merge)
      val order = (0 until n).sortBy(prio(_))
      val want  = (order.take(k) ++ order.filter(prio(_) < rate)).map(_.toDouble).toSet
      val (xs, vs) = merged.smallest()
      keptValues(merged) == want && merged.size == want.size &&
        xs.map(_(0)).sameElements(vs) && // coordinates stay with their values
        vs.map(v => prio(v.toInt)).sameElements(vs.map(v => prio(v.toInt)).sorted) // priority order
    }, minSuccessful = 300)
  }

  test("smallest(m) is the m-row prefix of the priority order") {
    val r = new PriorityReservoir(50, 0.0, 1)
    val rnd = new scala.util.Random(3)
    for (i <- 0 until 400) r.offer(rnd.nextDouble(), Array(i.toDouble), 0, i.toDouble)
    assert(r.size == 50)
    assert(r.smallest(20)._2.sameElements(r.smallest()._2.take(20)))
  }

  test("merged per-partition leaf reservoirs hold min(k, N_i) rows, each row with frequency k / N_i") {
    // two leaves, [0, 30) with 60 rows and [30, 50) with 4; rows dealt round-robin to 3 partitions
    val root   = PartitionTree.build1D(Array(30.0), Rect.range(0.0, 50.0))
    val xs     = (0 until 60).map(_ * 0.5) ++ Seq(31.0, 35.0, 40.0, 49.0)
    val k      = 6
    val trials = 12000
    val hits   = new Array[Int](xs.length)
    for (t <- 0 until trials) {
      val parts = Array.tabulate(3)(p => new LeafStats(root, k, 0.0, seed = t, partition = p))
      for ((x, i) <- xs.zipWithIndex) parts(i % 3).offer(Array(x), i.toDouble)
      val all = parts.head
      parts.tail.foreach(all.merge)
      assert(all.count.toSeq == Seq(60L, 4L))
      assert(all.sample(0).size == k && all.sample(1).size == 4)
      for (id <- 0 until 2; v <- all.sample(id).values) hits(v.toInt) += 1
    }
    for (i <- 0 until 60) { // Binomial(trials, k / 60): within 5 standard deviations
      val p  = k / 60.0
      val sd = math.sqrt(trials * p * (1 - p))
      assert(math.abs(hits(i) - trials * p) <= 5 * sd, s"row $i: ${hits(i)} of $trials, want ${trials * p}")
    }
    for (i <- 60 until 64) assert(hits(i) == trials) // a leaf of N_i <= k keeps every row
  }

  test("a NaN coordinate drops the row from N, the box, the samples and the leaf aggregates") {
    val xs = Seq(1.0, Double.NaN, 4.0, 2.0, Double.NaN)
    val t  = new TableStats(1, optSize = 10, uniformSize = 10, seed = 1, partition = 0)
    offerAll(t, xs)
    t.drop() // a row with a null field
    assert(t.rows == 3 && t.dropped == 3)
    assert(t.lo.toSeq == Seq(1.0) && t.hi.toSeq == Seq(4.0))
    assert(keptValues(t.opt) == Set(0.0, 2.0, 3.0) && keptValues(t.uniform) == Set(0.0, 2.0, 3.0))

    val l = new LeafStats(PartitionTree.build1D(Array(3.0), Rect.range(1.0, 5.0)), 10, 0.0, 1, 0)
    offerAll(l, xs)
    assert(l.dropped == 2)
    assert(l.count.toSeq == Seq(2L, 1L) && l.sum.toSeq == Seq(3.0, 2.0))
    assert(l.min.toSeq == Seq(0.0, 2.0) && l.max.toSeq == Seq(3.0, 2.0))
    assert(l.sample(0).values.toSet == Set(0.0, 3.0) && l.sample(1).values.toSeq == Seq(2.0))
  }

  test("the optimization and uniform samples of one scan draw independent priorities") {
    val t = new TableStats(1, optSize = 50, uniformSize = 50, seed = 9, partition = 0)
    offerAll(t, (0 until 1000).map(_.toDouble))
    val overlap = (keptValues(t.opt) intersect keptValues(t.uniform)).size
    assert(overlap < 15, s"$overlap shared rows; 2.5 expected for independent samples")
  }

  test("a sink with no sample allocation keeps none") {
    val l = new LeafStats(PartitionTree.build1D(Array.empty, Rect.range(0.0, 10.0)), 0, 0.0, 1, 0)
    offerAll(l, Seq(1.0, 2.0, 3.0))
    assert(l.count(0) == 3 && l.sample(0).size == 0)
  }
}

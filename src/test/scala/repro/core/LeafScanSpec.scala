package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.bench.GroundTruth

/** The sorted leaf sample and its one scan (`Moments.scan`): the dim-0 run
  * scan against a brute-force scan of the same rows, NaN coordinates,
  * excluded rectangles, and the fields each aggregate reads.
  */
class LeafScanSpec extends AnyFunSuite with PropSupport {

  /** Random rows on a coarse grid (many duplicate coordinates) with distinct values. */
  private def rows(rnd: scala.util.Random, n: Int, d: Int): (Array[Array[Double]], Array[Double]) = {
    val coords = Array.fill(n)(Array.fill(d)(rnd.nextInt(12).toDouble - 3))
    val values = Array.fill(n)((rnd.nextDouble() - 0.3) * 1000)
    (coords, values)
  }

  /** The reference: every row checked in every dimension, in stored order. */
  private def bruteForce(s: LeafSample, q: Rect): Moments = {
    val in = (0 until s.size).filter { i =>
      val x = s.coords(i)
      (0 until q.dims).forall(j => x(j) >= q.lo(j) && x(j) < q.hi(j))
    }.map(s.values)
    Moments(s.size, in.length, in.foldLeft(0.0)(_ + _), in.foldLeft(0.0)((t, a) => t + a * a),
            in.foldLeft(Double.PositiveInfinity)(math.min), in.foldLeft(Double.NegativeInfinity)(math.max))
  }

  /** A probe bound: a sample coordinate itself, a grid point, ±∞, NaN, or a real. */
  private def bound(rnd: scala.util.Random, s: LeafSample, j: Int): Double = rnd.nextInt(12) match {
    case 0 | 1 | 2 if s.size > 0 => s.coords(rnd.nextInt(s.size))(j)
    case 3                       => Double.NegativeInfinity
    case 4                       => Double.PositiveInfinity
    case 5                       => Double.NaN
    case 6 | 7 | 8               => rnd.nextInt(14).toDouble - 4
    case _                       => rnd.nextDouble() * 14 - 4
  }

  private def probe(rnd: scala.util.Random, s: LeafSample, d: Int): Rect = {
    val lo = Array.tabulate(d)(bound(rnd, s, _))
    // lo == hi (an empty range) one time in five
    val hi = Array.tabulate(d)(j => if (rnd.nextInt(5) == 0) lo(j) else bound(rnd, s, j))
    Rect(lo, hi)
  }

  private def relClose(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-12 * math.max(math.abs(a), math.abs(b))

  test("LeafSample sorts rows by dimension 0, each value kept with its coordinates") {
    val rnd = new scala.util.Random(1)
    for (d <- 1 to 3; n <- Seq(0, 1, 2, 50, 300)) {
      val (coords, _) = rows(rnd, n, d)
      val ids         = Array.tabulate(n)(_.toDouble) // value i marks input row i
      val s           = LeafSample(coords, ids)
      assert(s.size == n)
      assert(s.values.map(_.toInt).sorted.sameElements(0 until n), s"d=$d n=$n: not a permutation")
      for (i <- 0 until n) assert(s.coords(i) eq coords(s.values(i).toInt), s"d=$d n=$n row $i")
      for (i <- 1 until n) {
        val (a, b) = (s.coords(i - 1)(0), s.coords(i)(0))
        assert(a < b || (a == b && s.values(i - 1) < s.values(i)), s"d=$d n=$n rows ${i - 1},$i: not stably sorted")
      }
    }
  }

  test("the dim-0 run scan equals a brute-force scan of the same rows (d = 1..3)") {
    val gen = for {
      d    <- Gen.choose(1, 3)
      n    <- Gen.choose(0, 120)
      seed <- Gen.long
    } yield (d, n, seed)
    checkProp(Prop.forAll(gen) { case (d, n, seed) =>
      val rnd         = new scala.util.Random(seed)
      val (cs, vs)    = rows(rnd, n, d)
      val s           = LeafSample(cs, vs)
      (0 until 40).forall { _ =>
        val q = probe(rnd, s, d)
        val (got, want) = (Moments.scan(s, q, Agg.Min), bruteForce(s, q))
        val ok = got.ki == want.ki && got.kMatch == want.kMatch && got.min == want.min &&
          got.max == want.max && relClose(got.sum, want.sum) && relClose(got.sumSq, want.sumSq)
        if (!ok) println(s"d=$d n=$n q=$q: run scan $got, brute force $want")
        ok
      }
    }, minSuccessful = 200)
  }

  test("a NaN coordinate lies in no range of the scan nor of the exact answers") {
    val big = 1e9 // the value of every row with a NaN coordinate
    val probes1 = Seq(Rect.range(Double.NegativeInfinity, Double.PositiveInfinity),
                      Rect.range(0, 5), Rect.range(Double.NegativeInfinity, 0), Rect.range(2, Double.PositiveInfinity))
    for (d <- 1 to 2; nanDim <- 0 until d) {
      val rnd      = new scala.util.Random(d * 10 + nanDim)
      val (cs, vs) = rows(rnd, 60, d)
      for (i <- 0 until 60 by 4) { cs(i)(nanDim) = Double.NaN; vs(i) = big }
      val s = LeafSample(cs, vs)
      val probes = probes1.map(p => Rect(Array.fill(d)(p.lo(0)), Array.fill(d)(p.hi(0))))
      for (q <- probes) {
        val (m, want) = (Moments.scan(s, q, Agg.Max), bruteForce(s, q))
        assert(m.kMatch == want.kMatch && m.max < big, s"d=$d nanDim=$nanDim q=$q: $m")
        assert(!cs.exists(x => x(nanDim).isNaN && q.contains(x)))
      }
      val colMajor = Array.tabulate(d)(j => cs.map(_(j)))
      val gt       = new GroundTruth(colMajor, vs)
      val all      = Rect(Array.fill(d)(Double.NegativeInfinity), Array.fill(d)(Double.PositiveInfinity))
      assert(gt.count(all) == 45, s"d=$d nanDim=$nanDim")
      assert(gt.answer(all, Agg.Max) < big)
    }
  }

  test("the scan with excluded rectangles drops exactly the rows inside them") {
    val rnd      = new scala.util.Random(5)
    val (cs, vs) = rows(rnd, 200, 2)
    val q        = Rect(Array(-1.0, 0.0), Array(7.0, 6.0))
    val s        = LeafSample(cs, vs)
    // the holes are the nodes of a kd tree that a second query covers
    val skeleton = KdTree.buildBalanced(cs, vs, k = 16, Rect(Array(-3.0, -3.0), Array(9.0, 9.0)))
    val (tree, _) = TestSynopses.populate(skeleton, cs, vs)
    val holes    = PartitionTree.mcf(tree.root, Rect(Array(-3.0, 1.0), Array(6.0, 9.0)))
    val m        = Moments.scan(s, q, Agg.Sum, exclude = holes)
    val kept     = (0 until s.size).filter(i => q.contains(s.coords(i)) && !holes.cover.exists(_.bounds.contains(s.coords(i))))
    assert(holes.cover.nonEmpty && kept.size < (0 until s.size).count(i => q.contains(s.coords(i))))
    assert(m.ki == 200 && m.kMatch == kept.size && kept.size > 0)
    assert(m.sum == kept.map(s.values).foldLeft(0.0)(_ + _))
  }

  /** The full accumulation of the rows in `q` and in no covered node of `ex`,
    * in stored order: the reference for every field.
    */
  private def fullScan(s: LeafSample, q: Rect, ex: Frontier): (Int, Double, Double, Double, Double) = {
    var k = 0; var s1 = 0.0; var s2 = 0.0
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    for (i <- 0 until s.size) {
      val x = s.coords(i)
      if (q.contains(x) && (ex == null || !ex.cover.exists(_.bounds.contains(x)))) {
        val a = s.values(i)
        k += 1; s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
    }
    (k, s1, s2, mn, mx)
  }

  for (d <- Seq(1, 3); excluded <- Seq(false, true)) {
    test(s"each aggregate's scan returns the fields it reads bit for bit (d=$d exclusion=$excluded)") {
      import java.lang.Double.doubleToLongBits
      val rnd      = new scala.util.Random(d * 10 + (if (excluded) 1 else 0))
      val box      = Rect(Array.fill(d)(-3.0), Array.fill(d)(9.0))
      var excludedRows = 0
      for (_ <- 0 until 30) {
        val (cs, vs) = rows(rnd, rnd.nextInt(150), d)
        val s        = LeafSample(cs, vs)
        val ex =
          if (!excluded || s.size == 0) null
          else {
            val (tree, _) = TestSynopses.populate(KdTree.buildBalanced(cs, vs, k = 16, box), cs, vs)
            // a half-space below a random dim-0 cut covers whole nodes in any d
            val inf = Double.PositiveInfinity
            val cut = Array.tabulate(d)(j => if (j == 0) rnd.nextInt(12) - 3.0 else inf)
            PartitionTree.mcf(tree.root, Rect(Array.fill(d)(-inf), cut))
          }
        for (_ <- 0 until 20) {
          val q                  = probe(rnd, s, d)
          val (k, s1, s2, mn, mx) = fullScan(s, q, ex)
          if (ex != null) excludedRows += (0 until s.size).count(i => q.contains(s.coords(i))) - k
          for (agg <- Agg.all) {
            val m = Moments.scan(s, q, agg, ex)
            val what = s"$agg q=$q: $m vs ($k, $s1, $s2, $mn, $mx)"
            assert(m.ki == s.size && m.kMatch == k, what)
            if (agg != Agg.Count)
              assert(doubleToLongBits(m.sum) == doubleToLongBits(s1) &&
                     doubleToLongBits(m.sumSq) == doubleToLongBits(s2), what)
            if (agg == Agg.Min || agg == Agg.Max)
              assert(doubleToLongBits(m.min) == doubleToLongBits(mn) &&
                     doubleToLongBits(m.max) == doubleToLongBits(mx), what)
          }
        }
      }
      if (excluded) assert(excludedRows > 0, "no probe excluded a row")
    }
  }
}

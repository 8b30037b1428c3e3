package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.bench.GroundTruth

/** The sorted columnar leaf sample and its one scan (`Moments.scan`): the
  * dim-0 run scan against a brute-force scan of the same rows, NaN
  * coordinates, excluded rectangles, the fields each aggregate reads, runs
  * whose search is skipped (a bound at or beyond the sample's ends), the
  * prefix sums of 1-D SUM/AVG runs against exact sums, and the sample's
  * serialized size.
  */
class LeafScanSpec extends AnyFunSuite with PropSupport {

  /** Random rows on a coarse grid (many duplicate coordinates) with distinct values. */
  private def rows(rnd: scala.util.Random, n: Int, d: Int): (Array[Array[Double]], Array[Double]) = {
    val coords = Array.fill(n)(Array.fill(d)(rnd.nextInt(12).toDouble - 3))
    val values = Array.fill(n)((rnd.nextDouble() - 0.3) * 1000)
    (coords, values)
  }

  /** Row `i`'s coordinates. */
  private def row(s: LeafSample, i: Int): Array[Double] = Array.tabulate(s.dims)(s.columns(_)(i))

  /** The reference: every row checked in every dimension, in stored order. */
  private def bruteForce(s: LeafSample, q: Rect): Moments = {
    val in = (0 until s.size).filter { i =>
      val x = row(s, i)
      (0 until q.dims).forall(j => x(j) >= q.lo(j) && x(j) < q.hi(j))
    }.map(s.values)
    Moments(s.size, in.length, in.foldLeft(0.0)(_ + _), in.foldLeft(0.0)((t, a) => t + a * a),
            in.foldLeft(Double.PositiveInfinity)(math.min), in.foldLeft(Double.NegativeInfinity)(math.max))
  }

  /** A probe bound: a sample coordinate itself, a grid point, ±∞, NaN, or a real. */
  private def bound(rnd: scala.util.Random, s: LeafSample, j: Int): Double = rnd.nextInt(12) match {
    case 0 | 1 | 2 if s.size > 0 => s.columns(j)(rnd.nextInt(s.size))
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
      val s           = TestSynopses.sample(coords, ids, d)
      assert(s.size == n && s.dims == d && s.columns.forall(_.length == n))
      assert(s.values.map(_.toInt).sorted.sameElements(0 until n), s"d=$d n=$n: not a permutation")
      for (i <- 0 until n) assert(row(s, i).sameElements(coords(s.values(i).toInt)), s"d=$d n=$n row $i")
      assert(s.coords.map(_.toSeq).toSeq == (0 until n).map(row(s, _).toSeq), s"d=$d n=$n: row view")
      for (i <- 1 until n) {
        val (a, b) = (s.columns(0)(i - 1), s.columns(0)(i))
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
      val s           = TestSynopses.sample(cs, vs, d)
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
      val s = TestSynopses.sample(cs, vs, d)
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
    val s        = TestSynopses.sample(cs, vs, 2)
    // the holes are the nodes of a kd tree that a second query covers
    val skeleton = KdTree.buildBalanced(cs, vs, k = 16, Rect(Array(-3.0, -3.0), Array(9.0, 9.0)))
    val (tree, _) = TestSynopses.populate(skeleton, cs, vs)
    val holes    = PartitionTree.mcf(tree.root, Rect(Array(-3.0, 1.0), Array(6.0, 9.0)))
    val m        = Moments.scan(s, q, Agg.Sum, exclude = holes)
    val kept     = (0 until s.size).filter(i => q.contains(row(s, i)) && !holes.cover.exists(_.bounds.contains(row(s, i))))
    assert(holes.cover.nonEmpty && kept.size < (0 until s.size).count(i => q.contains(row(s, i))))
    assert(m.ki == 200 && m.kMatch == kept.size && kept.size > 0)
    assert(m.sum == kept.map(s.values).foldLeft(0.0)(_ + _))
  }

  /** The oracle: the row-order loop that every scan ran before 1-D runs
    * read prefix sums. It accumulates the rows in `q` and in no covered node
    * of `ex`, in stored order, and is the reference for every field.
    */
  private def fullScan(s: LeafSample, q: Rect, ex: Frontier): (Int, Double, Double, Double, Double) = {
    var k = 0; var s1 = 0.0; var s2 = 0.0
    var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    for (i <- 0 until s.size) {
      val x = row(s, i)
      if (q.contains(x) && (ex == null || !ex.cover.exists(_.bounds.contains(x)))) {
        val a = s.values(i)
        k += 1; s1 += a; s2 += a * a
        if (a < mn) mn = a
        if (a > mx) mx = a
      }
    }
    (k, s1, s2, mn, mx)
  }

  /** Why the scan of `s` over `q` for `agg` differs from the row-order
    * oracle in a field `agg` reads, if it does: `ki` and `kMatch` always,
    * the extrema for MIN/MAX, and Σ a and Σ a² bit for bit for all but COUNT.
    * A 1-D SUM/AVG run with nothing excluded may instead read the prefix
    * sums; its sums must then be bit for bit those of the oracle's run.
    */
  private def oracleFault(s: LeafSample, q: Rect, agg: Agg, ex: Frontier): Option[String] = {
    import java.lang.Double.doubleToLongBits
    def same(a: Double, b: Double) = doubleToLongBits(a) == doubleToLongBits(b)
    val m                   = Moments.scan(s, q, agg, ex)
    val (k, s1, s2, mn, mx) = fullScan(s, q, ex)
    // with nothing to check, the rows in q are the one run [first, first + k)
    def prefixRun = {
      val first = (0 until s.size).find(i => q.contains(row(s, i))).getOrElse(0)
      s.dims == 1 && ex == null && s.hasPrefixSums && (agg == Agg.Sum || agg == Agg.Avg) &&
      same(m.sum, s.runSum(first, first + k)) && same(m.sumSq, s.runSumSq(first, first + k))
    }
    val sumsOk    = agg == Agg.Count || (same(m.sum, s1) && same(m.sumSq, s2)) || prefixRun
    val extremaOk = (agg != Agg.Min && agg != Agg.Max) || (same(m.min, mn) && same(m.max, mx))
    if (m.ki == s.size && m.kMatch == k && sumsOk && extremaOk) None
    else Some(s"n=${s.size} $agg q=$q: $m vs ($k, $s1, $s2, $mn, $mx)")
  }

  /** Covered nodes of a fixed 16-leaf kd tree over [-3, 9)^d: those below a
    * dimension-0 cut at 3.
    */
  private def exclusion(d: Int): Frontier = {
    val (cs, vs)  = rows(new scala.util.Random(70 + d), 200, d)
    val box       = Rect(Array.fill(d)(-3.0), Array.fill(d)(9.0))
    val (tree, _) = TestSynopses.populate(KdTree.buildBalanced(cs, vs, k = 16, box), cs, vs)
    val inf       = Double.PositiveInfinity
    PartitionTree.mcf(tree.root, Rect(Array.fill(d)(-inf), Array.tabulate(d)(j => if (j == 0) 3.0 else inf)))
  }

  for (d <- Seq(1, 2); excluded <- Seq(false, true)) {
    test(s"runs bounded at or beyond the first or last key, NaN bounds, 0 and 1 rows: every aggregate as the row-order oracle (d=$d exclusion=$excluded)") {
      val inf = Double.PositiveInfinity
      val ex  = if (excluded) exclusion(d) else null
      if (excluded) assert(ex.nCover > 0)
      val rnd = new scala.util.Random(100 + d * 10 + (if (excluded) 1 else 0))
      val samples = Seq(0, 1, 2, 150, 150).zipWithIndex.map { case (n, i) =>
        val (cs, vs) = rows(rnd, n, d)
        if (i == 4) for (r <- 0 until n by 7) cs(r)(0) = Double.NaN // a NaN tail in dimension 0
        TestSynopses.sample(cs, vs, d)
      }
      // dimensions 1 .. d-1: a range and everything
      val rest = if (d == 1) Seq((Array.empty[Double], Array.empty[Double]))
                 else Seq((Array(-1.0), Array(6.0)), (Array(-inf), Array(inf)))
      for (s <- samples) {
        val keys          = s.columns(0).filterNot(_.isNaN)
        val (first, last) = if (keys.isEmpty) (0.0, 0.0) else (keys.head, keys.last)
        val mid           = if (keys.isEmpty) 1.0 else keys(keys.length / 2)
        val los = Seq(first, Math.nextDown(first), first - 0.5, -inf, Double.NaN, mid)
        val his = Seq(last, Math.nextUp(last), last + 0.5, inf, Double.NaN, mid)
        for (lo <- los; hi <- his; (lo1, hi1) <- rest; agg <- Agg.all) {
          val fault = oracleFault(s, Rect(lo +: lo1, hi +: hi1), agg, ex)
          assert(fault.isEmpty, fault.mkString)
        }
        // a range ending at the last key leaves that key's rows out
        val upToLast = Rect(Array.fill(d)(-inf), Array.tabulate(d)(j => if (j == 0) last else inf))
        if (ex == null) assert(Moments.scan(s, upToLast, Agg.Count).kMatch == keys.count(_ < last), s"n=${s.size}")
      }
    }
  }

  private val Eps = Math.ulp(1.0)

  /** The exact Σ a and Σ a² of the rows of `s` in `q`. */
  private def exactSums(s: LeafSample, q: Rect): (java.math.BigDecimal, java.math.BigDecimal) = {
    var s1 = java.math.BigDecimal.ZERO; var s2 = java.math.BigDecimal.ZERO
    for (i <- 0 until s.size if q.contains(row(s, i))) {
      val a = new java.math.BigDecimal(s.values(i))
      s1 = s1.add(a); s2 = s2.add(a.multiply(a))
    }
    (s1, s2)
  }

  /** Why the scan's Σ a or Σ a² of the rows of `s` in `q` is more than
    * 4ε·Σ|a| (resp. 4ε·Σ a²) from the exact sum, if it is.
    */
  private def sumsFault(s: LeafSample, q: Rect, m: Moments): Option[String] = {
    val (s1, s2) = exactSums(s, q)
    val absSum   = (0 until s.size).filter(i => q.contains(row(s, i))).map(i => math.abs(s.values(i))).sum
    def err(got: Double, exact: java.math.BigDecimal) = new java.math.BigDecimal(got).subtract(exact).abs.doubleValue
    val (e1, e2) = (err(m.sum, s1), err(m.sumSq, s2))
    // the bounds carry a 1.01 for the rounding of Σ|a| and Σ a² themselves
    if (e1 <= 4.04 * Eps * absSum && e2 <= 4.04 * Eps * s2.doubleValue) None
    else Some(s"q=$q: sum ${m.sum} errs $e1 on Σ|a| $absSum, sumSq ${m.sumSq} errs $e2 on ${s2.doubleValue}")
  }

  for (d <- Seq(1, 3); excluded <- Seq(false, true)) {
    test(s"each aggregate's scan returns the fields it reads bit for bit (d=$d exclusion=$excluded)") {
      import java.lang.Double.doubleToLongBits
      val rnd      = new scala.util.Random(d * 10 + (if (excluded) 1 else 0))
      val box      = Rect(Array.fill(d)(-3.0), Array.fill(d)(9.0))
      var excludedRows = 0
      for (_ <- 0 until 30) {
        val (cs, vs) = rows(rnd, rnd.nextInt(150), d)
        val s        = TestSynopses.sample(cs, vs, d)
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
          if (ex != null) excludedRows += (0 until s.size).count(i => q.contains(row(s, i))) - k
          for (agg <- Agg.all) {
            val m = Moments.scan(s, q, agg, ex)
            val what = s"$agg q=$q: $m vs ($k, $s1, $s2, $mn, $mx)"
            assert(m.ki == s.size && m.kMatch == k, what)
            // a 1-D SUM/AVG run with nothing excluded reads the prefix sums:
            // not the loop's bits, but within 4ε·Σ|a| of the exact sums
            val prefixRun = d == 1 && (agg == Agg.Sum || agg == Agg.Avg) && (ex == null || ex.nCover == 0)
            if (prefixRun) assert(sumsFault(s, q, m).isEmpty, sumsFault(s, q, m).mkString)
            else if (agg != Agg.Count)
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

  /** 600-row 1-D samples whose values defeat plain prefix sums: offset by
    * 1e8 (Σ a² cancels its first 16 digits in a difference), U(0,1) with one
    * 1e6 outlier (every later prefix of a² is 1e12), and lognormal(0,2).
    */
  private def adversarial(kind: String, seed: Long): LeafSample = {
    val rnd = new scala.util.Random(seed)
    val n   = 600
    val cs  = Array.fill(n)(rnd.nextDouble() * 12 - 3)
    val vs = kind match {
      case "offset"    => Array.fill(n)(1e8 + rnd.nextDouble())
      case "outlier"   => val v = Array.fill(n)(rnd.nextDouble()); v(rnd.nextInt(n)) = 1e6; v
      case "lognormal" => Array.fill(n)(math.exp(2 * rnd.nextGaussian()))
    }
    LeafSample(Array(cs), vs)
  }

  for (kind <- Seq("offset", "outlier", "lognormal")) {
    test(s"1-D SUM/AVG runs lie within 4ε·Σ|a| of the exact sums ($kind values)") {
      for (seed <- 0L until 3L) {
        val s   = adversarial(kind, seed)
        val c   = s.columns(0)
        val n   = s.size
        val rnd = new scala.util.Random(seed + 100)
        def at(i: Int) = if (i < n) c(i) else Double.PositiveInfinity
        // every run of 1 to 16 rows, random runs and the probes' bounds
        val runs = (for (len <- 1 to 16; i <- 0 to n - len) yield (i, i + len)) ++
          Seq.fill(400) { val (a, b) = (rnd.nextInt(n + 1), rnd.nextInt(n + 1)); (math.min(a, b), math.max(a, b)) }
        val qs = runs.map { case (i, j) => Rect.range(at(i), at(j)) } ++ Seq.fill(200)(probe(rnd, s, 1))
        assert(s.hasPrefixSums)
        for (q <- qs; agg <- Seq(Agg.Sum, Agg.Avg)) {
          val m = Moments.scan(s, q, agg)
          assert(m.kMatch == bruteForce(s, q).kMatch, s"$kind seed=$seed q=$q")
          assert(sumsFault(s, q, m).isEmpty, s"$kind seed=$seed ${sumsFault(s, q, m).mkString}")
        }
      }
    }
  }

  test("a sample whose sums overflow has no prefix sums and sums its runs row by row") {
    val cs = Array.tabulate(40)(_.toDouble)
    val vs = Array.tabulate(40)(i => if (i == 20) 1e200 else i + 0.5) // 1e200² overflows
    val s  = LeafSample(Array(cs), vs)
    assert(!s.hasPrefixSums)
    for ((lo, hi) <- Seq((0.0, 20.0), (21.0, 40.0), (3.0, 17.0), (0.0, 40.0))) {
      val q = Rect.range(lo, hi)
      val m = Moments.scan(s, q, Agg.Sum)
      val (k, s1, s2, _, _) = fullScan(s, q, null)
      assert(m.kMatch == k && m.sum == s1 && m.sumSq == s2, s"q=$q: $m")
    }
  }

  test("a Java-serialized sample stores no derived bytes and scans as the original") {
    val rnd = new scala.util.Random(3)
    for (d <- 1 to 3; n <- Seq(0, 1, 600)) {
      val (cs, vs) = rows(rnd, n, d)
      val s        = TestSynopses.sample(cs, vs, d)
      val bytes    = new java.io.ByteArrayOutputStream()
      val out      = new java.io.ObjectOutputStream(bytes)
      out.writeObject(s); out.close()
      assert(bytes.size <= s.storageBytes + 1024, s"d=$d n=$n: ${bytes.size} B for ${s.storageBytes} B")
      val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
        .readObject().asInstanceOf[LeafSample]
      assert(copy.hasPrefixSums)
      for (_ <- 0 until 50; agg <- Agg.all) {
        val q = probe(rnd, s, d)
        assert(Moments.scan(copy, q, agg) == Moments.scan(s, q, agg), s"d=$d n=$n $agg q=$q")
      }
    }
  }
}

package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** The index sort against Scala's boxed `sortBy` under the total order of
  * doubles: the same indices in the same order, over ties, ±0.0, NaNs of two
  * payloads and ±∞. The branch-free `lowerBound` against a linear search of
  * the same sorted keys.
  */
class IndexSortSpec extends AnyFunSuite with PropSupport {

  private val otherNaN = java.lang.Double.longBitsToDouble(0x7ff0000000000123L)
  private val specials = Array(-0.0, 0.0, Double.NaN, otherNaN, Double.PositiveInfinity,
                               Double.NegativeInfinity, 1.0, -1.0)

  /** n keys: mostly a few distinct values (ties), some specials, some spread. */
  private def keys(n: Int, rnd: scala.util.Random): Array[Double] = Array.fill(n) {
    rnd.nextInt(3) match {
      case 0 => rnd.nextInt(5).toDouble
      case 1 => specials(rnd.nextInt(specials.length))
      case _ => rnd.nextGaussian() * 1e3
    }
  }

  private def check(n: Int, seed: Long): Boolean = {
    val rnd  = new scala.util.Random(seed)
    val ks   = keys(n, rnd)
    val idx  = rnd.shuffle((0 until n).toVector).toArray // any order, not only 0 until n
    val in   = idx.clone()
    val want = idx.sortBy(ks(_))(Ordering.Double.TotalOrdering)
    val got  = IndexSort.sortBy(idx)(ks(_))
    got.sameElements(want) && idx.sameElements(in) // sortBy leaves its input as it was
  }

  test("sortBy equals the boxed sortBy under Ordering.Double.TotalOrdering") {
    for (n <- Seq(0, 1, 2, 17, 1000, 100000); seed <- 1L to 3L) assert(check(n, seed), s"n=$n seed=$seed")
    checkProp(Prop.forAll(Gen.choose(0, 300), Gen.choose(0L, 1000000L)) { (n, seed) => check(n, seed) },
              minSuccessful = 200)
  }

  for (seed <- 0 until 8) {
    test(s"lowerBound agrees with linear search (seed=$seed)") {
      val rnd0     = new scala.util.Random(seed)
      val (cs, as) = (Array.fill(40)(rnd0.nextDouble() * 100), Array.fill(40)(rnd0.nextDouble() * 10))
      val s        = SortedSample1D(cs, as)
      val rnd      = new scala.util.Random(seed + 200)
      for (_ <- 0 until 25) {
        val c      = rnd.nextDouble() * 120 - 10
        val linear = s.cs.indexWhere(_ >= c) match { case -1 => s.n; case i => i }
        assert(IndexSort.lowerBound(s.cs, c) == linear)
      }
    }
  }

  /** n keys sorted in the sort's order: ties, ±0.0, ±∞, spread values and a
    * tail of NaNs of two payloads.
    */
  private def sortedKeys(n: Int, rnd: scala.util.Random): Array[Double] = {
    val nan = if (n == 0) 0 else rnd.nextInt(n / 4 + 1)
    val ks = Array.tabulate(n) { i =>
      if (i >= n - nan) (if (rnd.nextBoolean()) Double.NaN else otherNaN)
      else rnd.nextInt(4) match {
        case 0 => rnd.nextInt(5).toDouble
        case 1 => specials(rnd.nextInt(specials.length)) match { case x if x.isNaN => -0.0; case x => x }
        case _ => rnd.nextGaussian() * 1e3
      }
    }
    java.util.Arrays.sort(ks, 0, n - nan) // the NaN-free head; Arrays.sort puts -0.0 before 0.0
    ks
  }

  /** `lowerBound` equals the first index whose key is not below the probe,
    * for probes at each key, just above and below it, at ±∞ and at NaN.
    */
  private def searchAgrees(n: Int, seed: Long): Boolean = {
    val ks     = sortedKeys(n, new scala.util.Random(seed))
    val probes = ks.flatMap(k => Seq(k, Math.nextUp(k), Math.nextDown(k))) ++
      Seq(Double.NegativeInfinity, Double.PositiveInfinity, Double.NaN, otherNaN, -0.0, 0.0)
    probes.forall { c =>
      val want = ks.indexWhere(x => !(x < c)) match { case -1 => n; case i => i }
      val got  = IndexSort.lowerBound(ks, c)
      if (got != want) println(s"n=$n seed=$seed c=$c: lowerBound $got, linear $want")
      got == want
    }
  }

  test("lowerBound equals a linear search over ties, ±0.0, ±∞ and a NaN tail") {
    val lengths = (0 to 70) ++ (1 to 12).flatMap(k => Seq((1 << k) - 1, (1 << k) + 1)).filter(_ > 70)
    for (n <- lengths) assert(searchAgrees(n, n.toLong), s"n=$n")
    checkProp(Prop.forAll(Gen.oneOf(lengths), Gen.choose(0L, 1000000L)) { (n, seed) => searchAgrees(n, seed) },
              minSuccessful = 200)
  }

  test("the default Ordering[Double] is the total order the sort uses") {
    val xs = specials ++ Array(Double.MinValue, Double.MinPositiveValue, -Double.MinPositiveValue)
    for (a <- xs; b <- xs)
      assert(Integer.signum(implicitly[Ordering[Double]].compare(a, b)) ==
             Integer.signum(java.lang.Double.compare(a, b)), s"$a vs $b")
  }
}

package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

/** The index sort against Scala's boxed `sortBy` under the total order of
  * doubles: the same indices in the same order, over ties, ±0.0, NaNs of two
  * payloads and ±∞.
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

  test("the default Ordering[Double] is the total order the sort uses") {
    val xs = specials ++ Array(Double.MinValue, Double.MinPositiveValue, -Double.MinPositiveValue)
    for (a <- xs; b <- xs)
      assert(Integer.signum(implicitly[Ordering[Double]].compare(a, b)) ==
             Integer.signum(java.lang.Double.compare(a, b)), s"$a vs $b")
  }
}

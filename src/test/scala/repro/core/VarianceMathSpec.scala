package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Unit tests for the prefix-sum view, the Sec 4.2.1 variance formulas and
  * their Appendix A properties. Pure Scala — no SparkSession needed.
  */
class VarianceMathSpec extends AnyFunSuite with PropSupport {

  private def randData(n: Int, seed: Long): (Array[Double], Array[Double]) = {
    val rnd = new scala.util.Random(seed)
    (Array.fill(n)(rnd.nextDouble() * 100), Array.fill(n)(rnd.nextDouble() * 10))
  }

  test("sorting: SortedSample1D orders by predicate and keeps pairs aligned") {
    val cs = Array(3.0, 1.0, 2.0)
    val as = Array(30.0, 10.0, 20.0)
    val s  = SortedSample1D(cs, as)
    assert(s.cs.toSeq == Seq(1.0, 2.0, 3.0))
    assert(s.as.toSeq == Seq(10.0, 20.0, 30.0))
  }

  test("presorted rejects unsorted input") {
    intercept[IllegalArgumentException] {
      Presorted(Array(2.0, 1.0), Array(0.0, 0.0))
    }
  }

  for (seed <- 0 until 8) {
    test(s"prefix sums match direct summation (seed=$seed)") {
      val (cs, as) = randData(50, seed)
      val s        = SortedSample1D(cs, as)
      val rnd      = new scala.util.Random(seed + 100)
      for (_ <- 0 until 20) {
        val i = rnd.nextInt(50); val j = i + rnd.nextInt(50 - i)
        val direct1 = (i until j).map(s.as).sum
        val direct2 = (i until j).map(k => s.as(k) * s.as(k)).sum
        assert(math.abs(s.s1(i, j) - direct1) < 1e-9)
        assert(math.abs(s.s2(i, j) - direct2) < 1e-9)
      }
    }
  }

  test("vSum matches the Sec 4.2.1 formula on a hand example") {
    // partition = 4 samples, query = first two values {1, 3}
    val s = Presorted(Array(0.0, 1.0, 2.0, 3.0), Array(1.0, 3.0, 5.0, 7.0))
    // V = Σt² − (Σt)²/n_i = (1+9) − 16/4 = 6
    assert(math.abs(s.vSum(0, 2, 4) - 6.0) < 1e-12)
  }

  test("vAvg matches the Sec 4.2.1 formula on a hand example") {
    val s = Presorted(Array(0.0, 1.0, 2.0, 3.0), Array(1.0, 3.0, 5.0, 7.0))
    // V = (nΣt² − (Σt)²)/(n·|q|²) = (4·10 − 16)/(4·4) = 1.5
    assert(math.abs(s.vAvg(0, 2, 4) - 1.5) < 1e-12)
  }

  test("vCount formula: cnt − cnt²/n") {
    val s = Presorted(Array.tabulate(10)(_.toDouble), Array.fill(10)(1.0))
    assert(math.abs(s.vCount(5, 10) - 2.5) < 1e-12)
    assert(s.vCount(0, 10) == 0.0)
    assert(s.vCount(10, 10) == 0.0)
  }

  test("variances are non-negative for arbitrary data") {
    checkProp(Prop.forAll(Gen.listOfN(30, Gen.chooseNum(-50.0, 50.0))) { vals =>
      val s = Presorted(Array.tabulate(vals.length)(_.toDouble), vals.toArray)
      (0 until vals.length).forall { i =>
        (i + 1 to vals.length).forall { j =>
          s.vSum(i, j, vals.length) >= 0 && s.vAvg(i, j, vals.length) >= 0
        }
      }
    })
  }

  for (seed <- 0 until 6) {
    test(s"monotonicity: growing the partition never shrinks query variance (seed=$seed)") {
      // Sec 4.3: for q inside b_x ⊆ b_y, V_x(q) <= V_y(q)
      val (cs, as) = randData(40, seed + 300)
      val s        = SortedSample1D(cs, as)
      val rnd      = new scala.util.Random(seed)
      for (_ <- 0 until 30) {
        val q1 = rnd.nextInt(30); val q2 = q1 + 1 + rnd.nextInt(9)
        val nx = q2 - q1 + rnd.nextInt(5)
        val ny = nx + 1 + rnd.nextInt(10)
        assert(s.vSum(q1, q2, nx) <= s.vSum(q1, q2, ny) + 1e-9)
        assert(s.vAvg(q1, q2, nx) <= s.vAvg(q1, q2, ny) + 1e-9)
        assert(s.vCount(q2 - q1, nx) <= s.vCount(q2 - q1, ny) + 1e-9)
      }
    }
  }

  for (seed <- 0 until 8) {
    test(s"sparse table argmax equals linear argmax (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val xs  = Array.fill(64)(rnd.nextDouble())
      val st  = new SparseTableMax(xs)
      for (_ <- 0 until 40) {
        val i = rnd.nextInt(63); val j = i + 1 + rnd.nextInt(64 - i - 1)
        val lin = (i until j).maxBy(xs)
        assert(xs(st.argmax(i, j)) == xs(lin))
      }
    }
  }

  test("sparse table rejects empty ranges") {
    val st = new SparseTableMax(Array(1.0, 2.0))
    intercept[IllegalArgumentException] { st.argmax(1, 1) }
  }
}

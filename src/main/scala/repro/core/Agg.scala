package repro.core

/** Aggregate functions supported by the PASS synopsis (Sec 3.1 of the paper). */
sealed trait Agg extends Product with Serializable
object Agg {
  case object Sum   extends Agg
  case object Count extends Agg
  case object Avg   extends Agg
  case object Min   extends Agg
  case object Max   extends Agg

  val all: Seq[Agg] = Seq(Sum, Count, Avg, Min, Max)
}

/** A half-open axis-aligned rectangle `lo(i) <= C_i < hi(i)` over the predicate
  * columns. Both partitioning conditions and query predicates are rectangles
  * (Sec 3.1 restricts to "rectangular" templates); using half-open intervals on
  * both sides makes partition/query alignment exact with no epsilon handling.
  *
  * Outer edges use `-Infinity` / `+Infinity` so the root spans the full dataset.
  */
final case class Rect(lo: Array[Double], hi: Array[Double]) {
  require(lo.length == hi.length, "lo/hi dimension mismatch")
  def dims: Int = lo.length

  /** Point membership test; a NaN coordinate lies in no rectangle. */
  def contains(x: Array[Double]): Boolean = {
    var i = 0
    while (i < lo.length) {
      if (!(x(i) >= lo(i) && x(i) < hi(i))) return false
      i += 1
    }
    true
  }

  /** Membership of row `row` of the coordinate columns `cols`
    * (`cols(j)(row)` in dimension j), in dimensions `from` .. `dims - 1` only.
    */
  def containsFrom(cols: Array[Array[Double]], row: Int, from: Int): Boolean = {
    var i = from
    while (i < lo.length) {
      val x = cols(i)(row)
      if (!(x >= lo(i) && x < hi(i))) return false
      i += 1
    }
    true
  }

  /** True iff `other` is entirely inside this rectangle. */
  def containsRect(other: Rect): Boolean = {
    var i = 0
    while (i < lo.length) {
      if (other.lo(i) < lo(i) || other.hi(i) > hi(i)) return false
      i += 1
    }
    true
  }

  /** True iff the two rectangles share no point. */
  def disjoint(other: Rect): Boolean = {
    var i = 0
    while (i < lo.length) {
      if (other.hi(i) <= lo(i) || other.lo(i) >= hi(i)) return true
      i += 1
    }
    false
  }

  override def toString: String =
    (0 until dims).map(i => f"[${lo(i)}%.4g,${hi(i)}%.4g)").mkString("x")

  override def equals(o: Any): Boolean = o match {
    case r: Rect => java.util.Arrays.equals(lo, r.lo) && java.util.Arrays.equals(hi, r.hi)
    case _       => false
  }
  override def hashCode(): Int =
    31 * java.util.Arrays.hashCode(lo) + java.util.Arrays.hashCode(hi)
}

object Rect {
  /** 1-D convenience constructor. */
  def range(lo: Double, hi: Double): Rect = Rect(Array(lo), Array(hi))
}

/** Result of answering one aggregate query against a synopsis.
  *
  * @param value            point estimate
  * @param ciHalf           CLT confidence-interval half width (λ·se); 0 when the
  *                         answer is exact, NaN when the method offers no CI
  * @param lb               deterministic hard lower bound (Sec 2.3); NaN if none
  * @param ub               deterministic hard upper bound; NaN if none
  * @param processedSamples number of sampled tuples scanned to answer (ESS numerator)
  * @param skipRate         fraction of base tuples safely skipped — covered by an
  *                         exact aggregate or pruned as irrelevant
  */
final case class Estimate(
    value: Double,
    ciHalf: Double,
    lb: Double = Double.NaN,
    ub: Double = Double.NaN,
    processedSamples: Long = 0L,
    skipRate: Double = 0.0,
)

package repro.core

/** The optimizer's sample view of rows already sorted by c, for hand-made
  * examples: it rejects unsorted input instead of sorting it.
  */
object Presorted {
  def apply(cs: Array[Double], as: Array[Double]): SortedSample1D = {
    var i = 1
    while (i < cs.length) { require(cs(i - 1) <= cs(i), "input not sorted"); i += 1 }
    SortedSample1D(cs, as)
  }
}

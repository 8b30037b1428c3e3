package repro.core

/** The stable sort of row indices by a `Double` key, in
  * `java.lang.Double.compare` order: -0.0 before 0.0, every NaN equal and
  * last. That is the order of Scala's default `Ordering[Double]`, so
  * `sortBy(idx)(key)` returns exactly `idx.sortBy(key)`, without boxing an
  * index or a key. A merge sort over the keys and indices in two parallel
  * primitive arrays. `lowerBound` is the one binary search over such a
  * sorted key column.
  */
object IndexSort {

  /** `idx` stably reordered by `key` (`key` is called once per index). */
  def sortBy(idx: Array[Int])(key: Int => Double): Array[Int] = {
    val n    = idx.length
    val keys = new Array[Double](n)
    var i    = 0
    while (i < n) { keys(i) = key(idx(i)); i += 1 }
    val out = idx.clone()
    if (n > 1) mergeSort(keys.clone(), idx.clone(), keys, out, 0, n)
    out
  }

  /** The first index of `sorted` (in this order, NaN last) whose key is not
    * below `c`, or `sorted.length` if none. A NaN key counts as not below, so
    * a NaN `c` gives 0.
    *
    * Branch-free (Khuong & Morin, "Array Layouts for Comparison-Based
    * Searching", 2017): the window `[base, base + n)` halves each step with
    * no exit test, and its one data-dependent choice picks a value, which
    * HotSpot compiles to a conditional move rather than a branch that a
    * random probe mispredicts half the time.
    */
  def lowerBound(sorted: Array[Double], c: Double): Int = {
    var n = sorted.length
    if (n == 0) return 0
    var base = 0
    while (n > 1) {
      val half = n >>> 1
      base = if (sorted(base + half) < c) base + half else base
      n -= half
    }
    if (sorted(base) < c) base + 1 else base
  }

  private val InsertionMax = 16

  /** Sorts `[lo, hi)` into `dk`/`di`; on entry the source pair and the
    * destination pair hold the same elements there, and each level swaps
    * their roles.
    */
  private def mergeSort(sk: Array[Double], si: Array[Int], dk: Array[Double], di: Array[Int],
                        lo: Int, hi: Int): Unit =
    if (hi - lo <= InsertionMax) {
      var i = lo + 1
      while (i < hi) {
        val k = dk(i); val x = di(i)
        var j = i
        while (j > lo && java.lang.Double.compare(dk(j - 1), k) > 0) {
          dk(j) = dk(j - 1); di(j) = di(j - 1); j -= 1
        }
        dk(j) = k; di(j) = x
        i += 1
      }
    } else {
      val mid = (lo + hi) >>> 1
      mergeSort(dk, di, sk, si, lo, mid)
      mergeSort(dk, di, sk, si, mid, hi)
      if (java.lang.Double.compare(sk(mid - 1), sk(mid)) <= 0) {
        System.arraycopy(sk, lo, dk, lo, hi - lo)
        System.arraycopy(si, lo, di, lo, hi - lo)
      } else {
        var p = lo; var q = mid; var o = lo
        while (o < hi) {
          if (q >= hi || (p < mid && java.lang.Double.compare(sk(p), sk(q)) <= 0)) {
            dk(o) = sk(p); di(o) = si(p); p += 1
          } else {
            dk(o) = sk(q); di(o) = si(q); q += 1
          }
          o += 1
        }
      }
    }
}

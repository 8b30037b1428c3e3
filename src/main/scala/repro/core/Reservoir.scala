package repro.core

import java.util.SplittableRandom

/** A mergeable uniform sample of rows (`d` coordinates and a value each) by
  * priority sampling: every offered row carries an independent U(0,1)
  * priority, and the reservoir keeps each row whose priority is below `rate`
  * plus the `k` rows of smallest priority (bottom-k sampling; Cohen & Kaplan,
  * PODC 2007). With `rate` 0 it holds exactly min(k, n) of n offered rows, a
  * uniform sample without replacement; with `rate` r > 0 it holds a
  * Bernoulli(r) sample topped up to min(k, n) rows by the next smallest
  * priorities. Offering one reservoir's rows to another keeps exactly the rows
  * one reservoir offered both inputs would keep, so per-partition reservoirs
  * merge on the Spark driver in any order. Rows live in flat primitive arrays
  * as a max-heap on priority.
  */
final class PriorityReservoir(val k: Int, val rate: Double, val d: Int) extends Serializable {
  private var n      = 0
  private var prio   = new Array[Double](0)
  private var vals   = new Array[Double](0)
  private var coords = new Array[Double](0)

  def size: Int = n

  /** Offers the row with coordinates `x(off until off + d)`, value `v` and
    * priority `p`.
    */
  def offer(p: Double, x: Array[Double], off: Int, v: Double): Unit =
    if (p < rate) {
      push(p, x, off, v)
      if (n > k && prio(0) >= rate) { n -= 1; move(n, 0); siftDown(0) } // drop a top-up row
    } else if (n < k) push(p, x, off, v)
    else if (n > 0 && p < prio(0)) { set(0, p, x, off, v); siftDown(0) }

  /** Offers every row of `o`. */
  def merge(o: PriorityReservoir): Unit = {
    var i = 0
    while (i < o.n) { offer(o.prio(i), o.coords, i * d, o.vals(i)); i += 1 }
  }

  /** The `m` kept rows of smallest priority (all by default) in priority
    * order, as coordinate rows and values: a uniform sample of min(m, size).
    */
  def smallest(m: Int = n): (Array[Array[Double]], Array[Double]) = {
    val order = IndexSort.sortBy(Array.range(0, n))(prio(_)).take(m)
    (order.map(i => java.util.Arrays.copyOfRange(coords, i * d, i * d + d)), order.map(vals))
  }

  /** The kept rows, in priority order, as a stored sample. */
  def toSample: LeafSample = {
    val order = IndexSort.sortBy(Array.range(0, n))(prio(_))
    LeafSample(Array.tabulate(d)(j => order.map(i => coords(i * d + j))), order.map(vals))
  }

  private def push(p: Double, x: Array[Double], off: Int, v: Double): Unit = {
    if (n == prio.length) {
      val cap = math.max(4, 2 * n)
      prio = java.util.Arrays.copyOf(prio, cap)
      vals = java.util.Arrays.copyOf(vals, cap)
      coords = java.util.Arrays.copyOf(coords, cap * d)
    }
    set(n, p, x, off, v)
    n += 1
    var i = n - 1
    while (i > 0 && prio((i - 1) / 2) < prio(i)) { swap(i, (i - 1) / 2); i = (i - 1) / 2 }
  }

  private def siftDown(from: Int): Unit = {
    var i    = from
    var done = false
    while (!done) {
      val l = 2 * i + 1
      var c = i
      if (l < n && prio(l) > prio(c)) c = l
      if (l + 1 < n && prio(l + 1) > prio(c)) c = l + 1
      if (c == i) done = true else { swap(i, c); i = c }
    }
  }

  private def set(i: Int, p: Double, x: Array[Double], off: Int, v: Double): Unit = {
    prio(i) = p
    vals(i) = v
    System.arraycopy(x, off, coords, i * d, d)
  }

  private def move(from: Int, to: Int): Unit = set(to, prio(from), coords, from * d, vals(from))

  private def swap(i: Int, j: Int): Unit = {
    val p = prio(i); prio(i) = prio(j); prio(j) = p
    val v = vals(i); vals(i) = vals(j); vals(j) = v
    var c = 0
    while (c < d) {
      val t = coords(i * d + c); coords(i * d + c) = coords(j * d + c); coords(j * d + c) = t
      c += 1
    }
  }
}

object PriorityReservoir {
  /** The priorities of one scan's rows in one partition: streams with
    * different (seed, stream, partition) are independent.
    */
  def priorities(seed: Long, stream: Int, partition: Int): SplittableRandom =
    new SplittableRandom(mix(mix(seed) + ((stream.toLong << 32) | (partition & 0xffffffffL))))

  private def mix(z0: Long): Long = { // Stafford's variant 13 of the MurmurHash3 finalizer
    var z = (z0 ^ (z0 >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}

/** What one Spark task of a build scan accumulates from its rows; the Spark
  * driver merges the tasks' sinks. A row with a NaN coordinate or value (or,
  * decided by the caller, a null field) is dropped and only counted.
  */
abstract class RowSink[S <: RowSink[S]] extends Serializable {
  var dropped = 0L

  /** Adds the row with coordinates `x` and value `v`, unless `v` or a coordinate is NaN. */
  final def offer(x: Array[Double], v: Double): Unit = {
    if (v.isNaN) { dropped += 1; return }
    var j = 0
    while (j < x.length) {
      if (x(j).isNaN) { dropped += 1; return }
      j += 1
    }
    add(x, v)
  }

  final def drop(): Unit = dropped += 1

  protected def add(x: Array[Double], v: Double): Unit

  /** Adds `o`'s rows to this sink's. */
  def merge(o: S): Unit
}

/** The first build scan: N, the per-dimension extrema, the optimization
  * sample (priority stream 0) and an optional uniform sample (stream 1).
  */
final class TableStats(d: Int, optSize: Int, uniformSize: Int, seed: Long, partition: Int)
    extends RowSink[TableStats] {
  var rows          = 0L
  val lo            = Array.fill(d)(Double.PositiveInfinity)
  val hi            = Array.fill(d)(Double.NegativeInfinity)
  val opt           = new PriorityReservoir(optSize, 0.0, d)
  val uniform       = new PriorityReservoir(uniformSize, 0.0, d)
  @transient private val optPriority     = PriorityReservoir.priorities(seed, 0, partition)
  @transient private val uniformPriority = PriorityReservoir.priorities(seed, 1, partition)

  protected def add(x: Array[Double], v: Double): Unit = {
    rows += 1
    var j = 0
    while (j < d) {
      if (x(j) < lo(j)) lo(j) = x(j)
      if (x(j) > hi(j)) hi(j) = x(j)
      j += 1
    }
    if (optSize > 0) opt.offer(optPriority.nextDouble(), x, 0, v)
    if (uniformSize > 0) uniform.offer(uniformPriority.nextDouble(), x, 0, v)
  }

  def merge(o: TableStats): Unit = {
    rows += o.rows
    dropped += o.dropped
    for (j <- 0 until d) { lo(j) = math.min(lo(j), o.lo(j)); hi(j) = math.max(hi(j), o.hi(j)) }
    opt.merge(o.opt)
    uniform.merge(o.uniform)
  }
}

/** The second build scan: routes each row to its leaf of the skeleton `tree`
  * (shipped to every task) and keeps per-leaf COUNT/SUM/MIN/MAX of the value,
  * by leaf id, plus a per-leaf reservoir of `perLeaf` rows and rate `rate`
  * (priority stream 2; none if both are 0).
  */
final class LeafStats(@transient private val tree: FlatTree, perLeaf: Int, rate: Double, seed: Long,
                      partition: Int)
    extends RowSink[LeafStats] {
  private val d = tree.dims // `tree` does not come back from a task
  val count   = new Array[Long](tree.leafCount)
  val sum     = new Array[Double](tree.leafCount)
  val min     = Array.fill(tree.leafCount)(Double.PositiveInfinity)
  val max     = Array.fill(tree.leafCount)(Double.NegativeInfinity)
  val samples =
    if (perLeaf > 0 || rate > 0) Array.fill(tree.leafCount)(new PriorityReservoir(perLeaf, rate, d))
    else Array.empty[PriorityReservoir]
  @transient private val priority = PriorityReservoir.priorities(seed, 2, partition)

  protected def add(x: Array[Double], v: Double): Unit = {
    val id = tree.leafOf(x)
    count(id) += 1
    sum(id) += v
    if (v < min(id)) min(id) = v
    if (v > max(id)) max(id) = v
    if (samples.nonEmpty) samples(id).offer(priority.nextDouble(), x, 0, v)
  }

  def merge(o: LeafStats): Unit = {
    dropped += o.dropped
    for (id <- count.indices) {
      count(id) += o.count(id)
      sum(id) += o.sum(id)
      min(id) = math.min(min(id), o.min(id))
      max(id) = math.max(max(id), o.max(id))
      if (samples.nonEmpty) samples(id).merge(o.samples(id))
    }
  }

  /** Leaf `id`'s stored sample. */
  def sample(id: Int): LeafSample = if (samples.isEmpty) LeafSample.empty(d) else samples(id).toSample
}

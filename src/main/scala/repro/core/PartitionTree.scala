package repro.core

import scala.collection.mutable.ArrayBuffer

/** A read-only view of node `ix` of `tree` (Definition 3.1): a rectangle of
  * predicate space with the exact SUM/COUNT/MIN/MAX of the aggregation column
  * over the tuples it contains. A leaf's `leafId >= 0` keys its stratified
  * sample; every node knows the contiguous `[leafLo, leafHi]` id range of its
  * descendant leaves. It stores nothing of its own: every field is read from
  * the tree's arrays.
  */
final case class TreeNode(tree: FlatTree, ix: Int) {
  def bounds: Rect = {
    val (from, to) = (ix * tree.dims, (ix + 1) * tree.dims)
    Rect(java.util.Arrays.copyOfRange(tree.lo, from, to), java.util.Arrays.copyOfRange(tree.hi, from, to))
  }
  def isLeaf: Boolean = tree.isLeaf(ix)
  def leafId: Int     = tree.leafId(ix)
  def leafLo: Int     = tree.leafLo(ix)
  def leafHi: Int     = tree.leafHi(ix)
  def count: Long     = tree.count(ix)
  def sum: Double     = tree.sum(ix)
  def min: Double     = tree.min(ix)
  def max: Double     = tree.max(ix)

  /** The children, in child order. */
  def children: IndexedSeq[TreeNode] =
    Iterator.iterate(ix + 1)(tree.skip(_)).takeWhile(_ < tree.skip(ix)).map(TreeNode(tree, _)).toIndexedSeq

  /** All nodes of the subtree in preorder. */
  def preorder: Iterator[TreeNode] = Iterator.range(ix, tree.skip(ix)).map(TreeNode(tree, _))

  def leaves: Iterator[TreeNode] = preorder.filter(_.isLeaf)
}

object PartitionTree {

  /** The 1-D skeleton over interior `cuts` (sorted, duplicates allowed): leaf
    * `j` spans `[edge j, edge j+1)` of `box.lo +: cuts :+ box.hi`, so the outer
    * leaves are clamped to the data box. The leaves sit under a balanced binary
    * tree (Sec 4.1: "construct the full tree with a bottom-up aggregation" — the
    * shape only affects lookup cost, not accuracy); statistics are set later
    * with [[FlatTree.withLeafStats]].
    */
  def build1D(cuts: Array[Double], box: Rect): FlatTree = {
    val edges = box.lo(0) +: cuts :+ box.hi(0)
    // a node is the edge range [lo, hi) of its leaves
    FlatTree.layout((0, edges.length - 1))(
      { case (lo, hi) => Rect.range(edges(lo), edges(hi)) },
      { case (lo, hi) => if (hi - lo == 1) Nil else Seq((lo, (lo + hi) / 2), ((lo + hi) / 2, hi)) })
  }

  /** Algorithm 1 (MCF) over the tree of `root` (see [[FlatTree.mcf]]),
    * returned as a fresh [[Frontier]] the size of its result.
    */
  def mcf(root: TreeNode, q: Rect, zeroVarRule: Boolean = false): Frontier =
    root.tree.mcf(q, zeroVarRule, Frontier.ofThread).copy()
}

/** The partition tree, stored only in this form: its nodes in preorder in
  * primitive arrays. Node `i`'s bounds in dimension `j` are `lo(i * dims + j)`
  * and `hi(i * dims + j)`, its statistics and leaf-id span sit at index `i`,
  * its first child (if any) at `i + 1`, each later child at the `skip` of the
  * one before, and `skip(i)` is the index just past its subtree. An internal
  * node has `2^dims` children, bit `j` of the child index meaning "upper side
  * in dimension j". Leaves are numbered in preorder (an internal node's
  * `leafId` is -1). [[FlatTree.layout]] builds a skeleton with the statistics
  * of empty leaves; [[withLeafStats]] sets them.
  */
final class FlatTree private (
    val dims: Int, val lo: Array[Double], val hi: Array[Double], val skip: Array[Int],
    val leafId: Array[Int], val leafLo: Array[Int], val leafHi: Array[Int],
    val count: Array[Long], val sum: Array[Double], val min: Array[Double], val max: Array[Double],
) extends Serializable {
  val size: Int = skip.length

  def leafCount: Int          = leafHi(0) + 1
  def isLeaf(i: Int): Boolean = skip(i) == i + 1
  def root: TreeNode          = TreeNode(this, 0)

  /** The leaves, by leaf id. */
  def leaves: IndexedSeq[TreeNode] = root.leaves.toIndexedSeq

  /** Footprint in bytes of the tree's exact aggregates: per node, two bounds
    * per dimension plus count, sum, min and max.
    */
  def storageBytes: Long = size.toLong * (2L * dims + 4L) * 8L

  /** This tree with leaf `id`'s count, sum, min and max taken from index `id`
    * of the arrays, rolled up (Sec 4.1's bottom-up aggregation): walking the
    * preorder backwards, each internal node folds its children in child
    * order, starting from 0, 0, +∞ and −∞.
    */
  def withLeafStats(leafCount: Array[Long], leafSum: Array[Double], leafMin: Array[Double],
                    leafMax: Array[Double]): FlatTree = {
    val c  = new Array[Long](size); val s = new Array[Double](size)
    val mn = Array.fill(size)(Double.PositiveInfinity); val mx = Array.fill(size)(Double.NegativeInfinity)
    var i  = size - 1
    while (i >= 0) {
      var k = i + 1 // the first child, if any
      if (isLeaf(i)) {
        val id = leafId(i)
        c(i) = leafCount(id); s(i) = leafSum(id); mn(i) = leafMin(id); mx(i) = leafMax(id)
      } else while (k < skip(i)) {
        c(i) += c(k); s(i) += s(k); mn(i) = math.min(mn(i), mn(k)); mx(i) = math.max(mx(i), mx(k))
        k = skip(k)
      }
      i -= 1
    }
    new FlatTree(dims, lo, hi, skip, leafId, leafLo, leafHi, c, s, mn, mx)
  }

  /** Routes a point to the id of its leaf without allocating. Child 0 lies
    * below every split, so the split in dimension `j` is child 0's upper edge
    * there; the child index found, the walk follows `skip` across the lower
    * children. A point inside the root box reaches the leaf whose box
    * contains it; a point on a split goes to the upper side; a point outside
    * the box, or NaN, goes to a boundary leaf (the builder drops NaN rows).
    */
  def leafOf(x: Array[Double]): Int = {
    var i = 0
    while (!isLeaf(i)) {
      val first = i + 1
      val base  = first * dims
      // dimension 0 (the only one in 1-D) and the skips are selects, not
      // branches: a branch on a random split mispredicts half the time
      var child = if (x(0) >= hi(base)) 1 else 0
      var j     = 1
      while (j < dims) {
        if (x(j) >= hi(base + j)) child |= 1 << j
        j += 1
      }
      i = first
      var c = 1
      while (c < (1 << dims)) { i += (skip(i) - i) & ((c - child - 1) >> 31); c += 1 } // skip if c <= child
    }
    leafId(i)
  }

  /** Node `i` shares no point with `q` (as `Rect.disjoint`). */
  def disjoint(i: Int, q: Rect): Boolean = {
    val b = i * dims
    var j = 0
    while (j < dims) {
      if (q.hi(j) <= lo(b + j) || q.lo(j) >= hi(b + j)) return true
      j += 1
    }
    false
  }

  /** Node `i` lies inside `q` (as `q.containsRect`). */
  private def inside(i: Int, q: Rect): Boolean = {
    val b = i * dims
    var j = 0
    while (j < dims) {
      if (lo(b + j) < q.lo(j) || hi(b + j) > q.hi(j)) return false
      j += 1
    }
    true
  }

  /** Row `row` of the coordinate columns `cols` lies in node `i` (as
    * `Rect.contains`: a NaN lies in none).
    */
  def contains(i: Int, cols: Array[Array[Double]], row: Int): Boolean = {
    val b = i * dims
    var j = 0
    while (j < dims) {
      val x = cols(j)(row)
      if (!(x >= lo(b + j) && x < hi(b + j))) return false
      j += 1
    }
    true
  }

  /** Algorithm 1 (MCF) with the Sec 3.4 additions: a preorder walk that
    * classifies nodes as covered, partial or pruned, stopping early at
    * 0-variance nodes for AVG queries when `zeroVarRule` is set. Each covered
    * node's exact count, sum, min and max are folded, in visit order, into the
    * frontier's cover aggregate, the only fold of the cover. It writes into
    * `f` and returns it; nothing is allocated once `f` has served a tree this
    * large.
    */
  def mcf(q: Rect, zeroVarRule: Boolean, f: Frontier): Frontier = {
    f.reset(this)
    var nc = 0; var np = 0; var nz = 0; var visited = 0
    var cCount = 0L; var cSum = 0.0
    var cMin   = Double.PositiveInfinity; var cMax = Double.NegativeInfinity
    var i      = 0
    while (i < size) {
      visited += 1
      var next = skip(i) // past the subtree, unless it is descended into
      if (disjoint(i, q)) ()
      else if (inside(i, q)) {
        f.coverIx(nc) = i; nc += 1
        cCount += count(i); cSum += sum(i); cMin = math.min(cMin, min(i)); cMax = math.max(cMax, max(i))
      } else if (count(i) == 0) () // empty partition: nothing to estimate
      else if (zeroVarRule && min(i) == max(i)) { f.zeroVarIx(nz) = i; nz += 1 }
      else if (next == i + 1) { f.partialIx(np) = i; np += 1 } // a leaf
      else next = i + 1
      i = next
    }
    f.nCover = nc; f.nPartial = np; f.nZeroVar = nz; f.visited = visited
    f.coverCount = cCount; f.coverSum = cSum; f.coverMin = cMin; f.coverMax = cMax
    f
  }
}

/** Output of the Minimal Coverage Frontier search over `tree`, as preorder
  * node indices in visit order. `FlatTree.mcf` overwrites it, so one frontier
  * serves every query of its owner, on any tree.
  *
  * `coverIx` holds nodes fully inside the predicate (answered exactly);
  * `partialIx` partially-overlapped leaves (estimated from samples);
  * `zeroVarIx` partially-overlapped 0-variance nodes returned early by the
  * AVG rule (min == max, possibly internal); `visited` counts the nodes
  * touched. `cover`, `partial` and `zeroVar` read them back as nodes.
  * `coverCount`, `coverSum`, `coverMin` and `coverMax` are the exact
  * aggregate of the covered nodes (0, 0, +∞ and −∞ when none is).
  */
final class Frontier {
  private[core] var tree: FlatTree = null
  var coverIx: Array[Int]   = Array.emptyIntArray
  var partialIx: Array[Int] = Array.emptyIntArray
  var zeroVarIx: Array[Int] = Array.emptyIntArray
  var nCover   = 0
  var nPartial = 0
  var nZeroVar = 0
  var visited  = 0
  var coverCount = 0L
  var coverSum   = 0.0
  var coverMin   = Double.PositiveInfinity
  var coverMax   = Double.NegativeInfinity

  /** Points the frontier at `t`, with room for every node of it. */
  private[core] def reset(t: FlatTree): Unit = {
    tree = t
    if (coverIx.length < t.size) {
      coverIx = new Array[Int](t.size); partialIx = new Array[Int](t.size); zeroVarIx = new Array[Int](t.size)
    }
  }

  /** An independent frontier holding just this one's result. */
  def copy(): Frontier = {
    val c = new Frontier
    c.tree = tree
    c.coverIx = java.util.Arrays.copyOf(coverIx, nCover); c.nCover = nCover
    c.partialIx = java.util.Arrays.copyOf(partialIx, nPartial); c.nPartial = nPartial
    c.zeroVarIx = java.util.Arrays.copyOf(zeroVarIx, nZeroVar); c.nZeroVar = nZeroVar
    c.visited = visited
    c.coverCount = coverCount; c.coverSum = coverSum; c.coverMin = coverMin; c.coverMax = coverMax
    c
  }

  def cover: IndexedSeq[TreeNode]   = nodesOf(coverIx, nCover)
  def partial: IndexedSeq[TreeNode] = nodesOf(partialIx, nPartial)
  def zeroVar: IndexedSeq[TreeNode] = nodesOf(zeroVarIx, nZeroVar)

  private def nodesOf(ix: Array[Int], n: Int): IndexedSeq[TreeNode] = (0 until n).map(j => TreeNode(tree, ix(j)))

  /** Row `row` of the coordinate columns `cols` lies in a covered node. */
  def inCover(cols: Array[Array[Double]], row: Int): Boolean = {
    var j = 0
    while (j < nCover && !tree.contains(coverIx(j), cols, row)) j += 1
    j < nCover
  }
}

object Frontier {
  // one per thread, shared by every tree: a frontier held per tree would keep
  // its tree reachable from each thread that ever queried it
  private val perThread = ThreadLocal.withInitial(() => new Frontier)

  /** The calling thread's frontier, for answer paths that reuse one per query. */
  def ofThread: Frontier = perThread.get()
}

object FlatTree {

  /** Lays out the tree under `root` in preorder, numbering the leaves in
    * preorder, with the statistics of empty leaves. `rect` gives a node's box
    * and `children` its children in child order (none for a leaf).
    */
  def layout[N](root: N)(rect: N => Rect, children: N => Seq[N]): FlatTree = {
    val boxes                        = ArrayBuffer.empty[Rect]
    val skip, leafId, leafLo, leafHi = ArrayBuffer.empty[Int]
    var leaves                       = 0
    def visit(n: N): Unit = {
      val i  = boxes.length
      val cs = children(n)
      boxes += rect(n); skip += 0; leafId += (if (cs.isEmpty) leaves else -1); leafLo += leaves; leafHi += 0
      if (cs.isEmpty) leaves += 1 else cs.foreach(visit)
      skip(i) = boxes.length; leafHi(i) = leaves - 1
    }
    visit(root)
    val size = boxes.length
    val dims = boxes(0).dims
    val lo   = new Array[Double](size * dims)
    val hi   = new Array[Double](size * dims)
    for (i <- 0 until size) {
      System.arraycopy(boxes(i).lo, 0, lo, i * dims, dims)
      System.arraycopy(boxes(i).hi, 0, hi, i * dims, dims)
    }
    new FlatTree(dims, lo, hi, skip.toArray, leafId.toArray, leafLo.toArray, leafHi.toArray, new Array[Long](size),
                 new Array[Double](size), Array.fill(size)(Double.PositiveInfinity),
                 Array.fill(size)(Double.NegativeInfinity))
  }
}

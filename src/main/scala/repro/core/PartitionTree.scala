package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** A node of the PASS partition tree (Definition 3.1): a rectangle of predicate
  * space annotated with the exact SUM/COUNT/MIN/MAX of the aggregation column
  * over the tuples it contains. Leaves carry a `leafId >= 0` that keys both the
  * partition-aggregate table and the stratified sample; every node knows the
  * contiguous `[leafLo, leafHi]` id range of its descendant leaves so the
  * 0-variance rule can pool their samples without re-walking the tree.
  * Queries read a root's [[FlatTree]], built from the skeleton on first use.
  */
final class TreeNode(
    val bounds: Rect,
    val children: Array[TreeNode],
    val leafId: Int,
    var count: Long = 0L,
    var sum: Double = 0.0,
    var min: Double = Double.PositiveInfinity,
    var max: Double = Double.NegativeInfinity,
) extends Serializable {
  def isLeaf: Boolean = children.isEmpty
  var leafLo: Int = leafId
  var leafHi: Int = leafId

  /** The flat form of the tree under this node, once a query has built it. */
  @transient private[core] var flat: FlatTree = null

  /** All nodes in preorder. */
  def preorder: Iterator[TreeNode] =
    Iterator.single(this) ++ children.iterator.flatMap(_.preorder)

  def leaves: Iterator[TreeNode] = preorder.filter(_.isLeaf)
}

object PartitionTree {

  def leaf(bounds: Rect, id: Int): TreeNode = new TreeNode(bounds, Array.empty, id)

  /** The 1-D skeleton over interior `cuts` (sorted, duplicates allowed): leaf
    * `j` spans `[edge j, edge j+1)` of `box.lo +: cuts :+ box.hi`, so the outer
    * leaves are clamped to the data box. The leaves sit under a balanced binary
    * tree (Sec 4.1: "construct the full tree with a bottom-up aggregation" — the
    * shape only affects lookup cost, not accuracy); statistics are filled in
    * later and rolled up with [[rollUpTree]].
    */
  def build1D(cuts: Array[Double], box: Rect): TreeNode = {
    val edges = box.lo(0) +: cuts :+ box.hi(0)
    def rec(lo: Int, hi: Int): TreeNode = {
      val rect = Rect.range(edges(lo), edges(hi))
      if (hi - lo == 1) leaf(rect, lo)
      else {
        val mid = (lo + hi) / 2
        new TreeNode(rect, Array(rec(lo, mid), rec(mid, hi)), -1)
      }
    }
    rec(0, edges.length - 1)
  }

  /** Routes a point to the id of its leaf without allocating. Every internal
    * node splits its box at one point per dimension into `2^d` children, bit
    * `j` of the child index meaning "upper side in dimension j" (the 1-D
    * binary tree is the `d = 1` case), so child `2^j`'s lower edge in `j` is
    * the split. A point inside the root box reaches the leaf whose box contains
    * it; a point on a split goes to the upper side; a point outside the box, or
    * NaN, goes to a boundary leaf (the builder drops NaN rows before routing).
    */
  def leafOf(root: TreeNode, x: Array[Double]): Int = {
    var node = root
    while (!node.isLeaf) {
      val cs    = node.children
      var child = 0
      var j     = 0
      while ((1 << j) < cs.length) {
        if (x(j) >= cs(1 << j).bounds.lo(j)) child |= 1 << j
        j += 1
      }
      node = cs(child)
    }
    node.leafId
  }

  /** Recomputes a node's aggregate statistics and leaf-id span from its
    * children (one step of the bottom-up aggregation).
    */
  def rollUpStats(node: TreeNode): Unit = {
    if (node.isLeaf) return
    node.count = node.children.map(_.count).sum
    node.sum = node.children.map(_.sum).sum
    node.min = node.children.map(_.min).min
    node.max = node.children.map(_.max).max
    node.leafLo = node.children.map(_.leafLo).min
    node.leafHi = node.children.map(_.leafHi).max
  }

  /** Footprint in bytes of a tree's exact aggregates: per node, two bounds per
    * dimension plus count, sum, min and max.
    */
  def storageBytes(root: TreeNode): Long = root.preorder.size.toLong * (2L * root.bounds.dims + 4L) * 8L

  /** Rolls statistics up an entire skeleton tree whose leaves are populated,
    * dropping any flat form built from the old statistics.
    */
  def rollUpTree(root: TreeNode): Unit = {
    root.children.foreach(rollUpTree)
    rollUpStats(root)
    root.flat = null
  }

  /** The flat form of the tree under `root`, built once and kept on the root
    * (not serialized: a deserialized tree builds it again on first use).
    */
  def flat(root: TreeNode): FlatTree = {
    val f = root.flat // one read: another thread may build its own equal copy
    if (f != null) f
    else { val built = new FlatTree(root); root.flat = built; built }
  }

  /** Algorithm 1 (MCF) over the flat form of `root` (see [[FlatTree.mcf]]),
    * returned as a fresh [[Frontier]] the size of its result.
    */
  def mcf(root: TreeNode, q: Rect, zeroVarRule: Boolean = false): Frontier =
    flat(root).mcf(q, zeroVarRule, Frontier.ofThread).copy()

  /** Checks Definition 3.1's invariants plus statistic consistency; returns the
    * list of violations (empty = valid). Test helper, O(tree²) on siblings.
    */
  def invariantViolations(root: TreeNode): Seq[String] = {
    val errs = ArrayBuffer.empty[String]
    for (node <- root.preorder if !node.isLeaf) {
      val cs = node.children
      for (c <- cs if !node.bounds.containsRect(c.bounds))
        errs += s"child ${c.bounds} escapes parent ${node.bounds}"
      for (i <- cs.indices; j <- i + 1 until cs.length if !cs(i).bounds.disjoint(cs(j).bounds))
        errs += s"siblings overlap: ${cs(i).bounds} vs ${cs(j).bounds}"
      if (cs.map(_.count).sum != node.count)
        errs += s"count mismatch at ${node.bounds}: ${cs.map(_.count).sum} vs ${node.count}"
      if (math.abs(cs.map(_.sum).sum - node.sum) > 1e-6 * (1 + math.abs(node.sum)))
        errs += s"sum mismatch at ${node.bounds}"
      if (node.count > 0 && cs.map(_.min).min != node.min) errs += s"min mismatch at ${node.bounds}"
      if (node.count > 0 && cs.map(_.max).max != node.max) errs += s"max mismatch at ${node.bounds}"
    }
    errs.toSeq
  }
}

/** A partition tree laid out in preorder in primitive arrays, the form every
  * query reads: node `i`'s bounds in dimension `j` are `lo(i * dims + j)` and
  * `hi(i * dims + j)`, its statistics and leaf-id span sit at index `i`, its
  * first child (if any) at `i + 1`, and `skip(i)` is the index just past its
  * subtree. `nodes(i)` is the skeleton node it was built from.
  */
final class FlatTree(root: TreeNode) {
  val nodes: Array[TreeNode] = root.preorder.toArray
  val size: Int              = nodes.length
  val dims: Int              = root.bounds.dims

  val lo: Array[Double]   = new Array[Double](size * dims)
  val hi: Array[Double]   = new Array[Double](size * dims)
  val count: Array[Long]  = nodes.map(_.count)
  val sum: Array[Double]  = nodes.map(_.sum)
  val min: Array[Double]  = nodes.map(_.min)
  val max: Array[Double]  = nodes.map(_.max)
  val leafId: Array[Int]  = nodes.map(_.leafId)
  val leafLo: Array[Int]  = nodes.map(_.leafLo)
  val leafHi: Array[Int]  = nodes.map(_.leafHi)
  val skip: Array[Int]    = new Array[Int](size)

  locally {
    var i = 0
    while (i < size) {
      System.arraycopy(nodes(i).bounds.lo, 0, lo, i * dims, dims)
      System.arraycopy(nodes(i).bounds.hi, 0, hi, i * dims, dims)
      i += 1
    }
    // node i's children follow it in preorder, each subtree after the last
    def fillSkip(i: Int): Int = {
      var next = i + 1
      for (_ <- nodes(i).children) next = fillSkip(next)
      skip(i) = next
      next
    }
    fillSkip(0)
  }

  /** Node `i` shares no point with `q` (as `Rect.disjoint`). */
  private def disjoint(i: Int, q: Rect): Boolean = {
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

  /** Point `x` lies in node `i` (as `Rect.contains`: a NaN lies in none). */
  def contains(i: Int, x: Array[Double]): Boolean = {
    val b = i * dims
    var j = 0
    while (j < dims) {
      if (!(x(j) >= lo(b + j) && x(j) < hi(b + j))) return false
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

  private def nodesOf(ix: Array[Int], n: Int): IndexedSeq[TreeNode] =
    ArraySeq.unsafeWrapArray(Array.tabulate(n)(j => tree.nodes(ix(j))))

  /** Point `x` lies in a covered node. */
  def inCover(x: Array[Double]): Boolean = {
    var j = 0
    while (j < nCover && !tree.contains(coverIx(j), x)) j += 1
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

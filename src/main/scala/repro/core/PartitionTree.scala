package repro.core

import scala.collection.mutable.ArrayBuffer

/** A node of the PASS partition tree (Definition 3.1): a rectangle of predicate
  * space annotated with the exact SUM/COUNT/MIN/MAX of the aggregation column
  * over the tuples it contains. Leaves carry a `leafId >= 0` that keys both the
  * partition-aggregate table and the stratified sample; every node knows the
  * contiguous `[leafLo, leafHi]` id range of its descendant leaves so the
  * 0-variance rule can pool their samples without re-walking the tree.
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

  /** Rolls statistics up an entire skeleton tree whose leaves are populated. */
  def rollUpTree(root: TreeNode): Unit = {
    root.children.foreach(rollUpTree)
    rollUpStats(root)
  }

  /** Output of the Minimal Coverage Frontier search.
    *
    * @param cover   nodes fully inside the predicate — answered exactly
    * @param partial partially-overlapped leaf nodes — estimated from samples
    * @param zeroVar partially-overlapped 0-variance nodes returned early by the
    *                AVG rule (min == max; possibly internal)
    * @param visited number of tree nodes touched (query-latency accounting)
    */
  final case class Frontier(
      cover: ArrayBuffer[TreeNode],
      partial: ArrayBuffer[TreeNode],
      zeroVar: ArrayBuffer[TreeNode],
      visited: Int,
  )

  /** Algorithm 1 (MCF) with the Sec 3.4 additions: a depth-first search that
    * classifies the tree into covered / partial / pruned nodes, stopping early
    * at 0-variance nodes for AVG queries when `zeroVarRule` is set.
    */
  def mcf(root: TreeNode, q: Rect, zeroVarRule: Boolean = false): Frontier = {
    val cover   = ArrayBuffer.empty[TreeNode]
    val partial = ArrayBuffer.empty[TreeNode]
    val zeroVar = ArrayBuffer.empty[TreeNode]
    var visited = 0
    def rec(node: TreeNode): Unit = {
      visited += 1
      if (node.bounds.disjoint(q)) ()
      else if (q.containsRect(node.bounds)) cover += node
      else if (node.count == 0) () // empty partition: nothing to estimate
      else if (zeroVarRule && node.min == node.max) zeroVar += node
      else if (node.isLeaf) partial += node
      else node.children.foreach(rec)
    }
    rec(root)
    Frontier(cover, partial, zeroVar, visited)
  }

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

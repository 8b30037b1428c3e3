package repro.core

import scala.collection.mutable.ArrayBuffer

object TreeInvariants {

  /** Checks Definition 3.1's invariants plus statistic consistency; returns the
    * list of violations (empty = valid). O(tree²) on siblings.
    */
  def violations(root: TreeNode): Seq[String] = {
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

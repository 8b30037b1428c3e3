package repro.core

import scala.collection.mutable.ArrayBuffer

/** The recursive MCF that the flat preorder traversal (`FlatTree.mcf`)
  * replaced, kept as the tests' reference: Algorithm 1 with the Sec 3.4
  * additions, a depth-first recursion over the `TreeNode` views.
  */
object ReferenceMcf {

  final case class Result(cover: Seq[TreeNode], partial: Seq[TreeNode], zeroVar: Seq[TreeNode], visited: Int)

  def mcf(root: TreeNode, q: Rect, zeroVarRule: Boolean): Result = {
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
    Result(cover.toSeq, partial.toSeq, zeroVar.toSeq, visited)
  }
}

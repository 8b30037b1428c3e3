package repro.perfbench

import repro.core.Estimate

/** The benchmark's check of one answer against the query's exact answer. */
object AnswerCheck {

  /** Why `e` is a wrong answer to a query whose exact answer is `truth`, or
    * `None` if it is right. It is wrong if its hard bounds `[lb, ub]` miss the
    * truth by more than 1e-9 relative, or if its value is not finite where the
    * truth is.
    */
  def fault(e: Estimate, truth: Double): Option[String] = {
    val tol = 1e-9 * math.abs(truth)
    if (truth.isNaN || truth.isInfinite) None
    else if (!(e.lb <= truth + tol && e.ub >= truth - tol)) Some("bounds miss the truth")
    else if (e.value.isNaN || e.value.isInfinite) Some("non-finite estimate")
    else None
  }
}

package repro.jobs

import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 2 (end-to-end PASS vs
  * VerdictDB-lite vs DeepDB-lite: latency, storage, construction time, median
  * relative error on the three 1-D workloads and NYC-2D..5D templates).
  * VerdictDB-lite is the US baseline at K = ⌈r·N⌉ for scramble ratio r.
  */
object Table2Job {
  def main(args: Array[String]): Unit = TableJob.run("pass-table2")(Tables.table2)
}

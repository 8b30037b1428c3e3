package repro.jobs

import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 3 (preprocessing cost, mean
  * and max query latency, and accuracy as the partition count k grows).
  */
object Table3Job {
  def main(args: Array[String]): Unit = TableJob.run("pass-table3")(Tables.table3)
}

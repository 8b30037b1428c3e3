package repro.jobs

import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 1 (median relative error of
  * US/ST/AQP++/PASS variants for COUNT/SUM/AVG on the three datasets).
  * Tunables via env: REPRO_SF, REPRO_QUERIES, REPRO_SEED.
  */
object Table1Job {
  def main(args: Array[String]): Unit = TableJob.run("pass-table1")(Tables.table1)
}

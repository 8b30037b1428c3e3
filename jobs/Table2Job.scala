package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 2 (end-to-end PASS vs
  * VerdictDB-lite vs DeepDB-lite: latency, storage, construction time, median
  * relative error on the three 1-D workloads and NYC-2D..5D templates).
  * VerdictDB-lite is the US baseline at K = ⌈r·N⌉ for scramble ratio r.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("pass-table2")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val (_, text) = Tables.table2(spark)
      println(text)
    } finally spark.stop()
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 1 (median relative error of
  * US/ST/AQP++/PASS variants for COUNT/SUM/AVG on the three datasets).
  * Tunables via env: REPRO_SF, REPRO_QUERIES, REPRO_SEED.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("pass-table1")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val (_, text) = Tables.table1(spark)
      println(text)
    } finally spark.stop()
  }
}

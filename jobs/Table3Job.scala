package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing paper Table 3 (preprocessing cost, mean
  * and max query latency, and accuracy as the partition count k grows).
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("pass-table3")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val (_, text) = Tables.table3(spark)
      println(text)
    } finally spark.stop()
  }
}

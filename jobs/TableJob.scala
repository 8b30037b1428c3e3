package repro.jobs

import org.apache.spark.sql.SparkSession

/** The body of every spark-submit entrypoint: one SparkSession named
  * `appName` (master from SPARK_MASTER, default `local[*]`; broadcast joins
  * off), the paper table it computes printed as text, then the session stopped.
  */
object TableJob {
  def run(appName: String)(table: SparkSession => (Any, String)): Unit = {
    val spark = SparkSession.builder().appName(appName)
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(table(spark)._2)
    finally spark.stop()
  }
}

package repro.bench

import repro.SparkSpec
import repro.core.Agg

/** Reproduces paper Table 3: as the partition count k grows, accuracy improves
  * and per-query latency (samples processed / partial strata) falls, at a
  * growing preprocessing cost.
  */
class Table3Bench extends SparkSpec {

  private lazy val result = Tables.table3(spark)

  /** A row's median relative error: its one cell, SUM over NYC. */
  private def re(r: Tables.Row): Double = r.re((Agg.Sum, "NYC"))

  test("table 3 renders for k in {4..128}") {
    val (rows, text) = result
    println(text)
    assert(rows.map(_.approach) == Seq("4", "8", "16", "32", "64", "128"))
    assert(rows.forall(r => !re(r).isNaN && r.buildS >= 0))
  }

  test("accuracy improves from k=4 to k=128") {
    val (rows, _) = result
    val byK = rows.map(r => r.approach -> r).toMap
    assert(re(byK("128")) < re(byK("4")),
           s"k=128 RE ${re(byK("128"))} should beat k=4 RE ${re(byK("4"))}")
    assert(re(byK("64")) < re(byK("4")))
  }

  test("finer partitioning reduces per-query latency (more skipping)") {
    val (rows, _) = result
    val byK = rows.map(r => r.approach -> r).toMap
    assert(byK("128").latencyMs <= byK("4").latencyMs * 1.2,
           s"k=128 ${byK("128").latencyMs}ms vs k=4 ${byK("4").latencyMs}ms")
  }

  test("max latency bounds mean latency") {
    val (rows, _) = result
    assert(rows.forall(r => r.maxLatencyMs >= r.latencyMs))
  }
}

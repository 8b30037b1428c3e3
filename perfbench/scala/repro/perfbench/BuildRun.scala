package repro.perfbench

import java.io.{BufferedOutputStream, FileOutputStream, ObjectOutputStream}
import java.lang.management.ManagementFactory
import java.nio.file.Paths

import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.SparkSession
import repro.bench.Harness
import repro.core._
import repro.core.PassBuilder.Adp1D

import scala.collection.mutable.ArrayBuffer

/** The Spark JVM of one benchmark run: set-up, warm-up builds, timed builds,
  * the in-process reference answers and their accuracy and, in a traced run,
  * the per-phase build breakdown. Writes `build.json`, `spans-build.json` and,
  * per timed build b, `answer-input-b.bin` (synopsis, queries, aggregates,
  * reference estimates and exact truths, Java-serialized) for the answer forks.
  *
  * Usage: `BuildRun key=value …` with the keys read below; `run.py` passes them.
  */
object BuildRun {
  private val OptSampleSize = 4096 // PassBuilder.build's default

  def main(args: Array[String]): Unit = {
    val kv = args.map { a => val i = a.indexOf('='); a.take(i) -> a.drop(i + 1) }.toMap
    val workload     = kv("workload")
    val seed         = kv("seed").toLong
    val out          = Paths.get(kv("out"))
    val setupReps    = kv("setup_reps").toInt
    val timedBuilds  = kv("timed_builds").toInt
    val trace        = kv("trace") == "1"

    val spans      = new Spans
    val jvmStartUs = ManagementFactory.getRuntimeMXBean.getStartTime * 1000.0
    val spark = SparkSession.builder
      .master(kv("master"))
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sparkReadyUs = spans.nowUs
    val sparkS       = (sparkReadyUs - jvmStartUs) / 1e6

    // ---- set-up: JVM + Spark once, then data, truth and queries `setupReps` times.
    // setup_s of a repetition = JVM/Spark start + that repetition's own set-up.
    val setupS = ArrayBuffer.empty[Double]
    var in: BenchWorkloads.Input = null
    for (rep <- 0 until setupReps) {
      if (in != null) in.release()
      val id = spans.begin(s"setup[$rep]", 0, if (rep == 0) jvmStartUs else spans.nowUs)
      if (rep == 0) spans.record("spark", id, jvmStartUs, sparkReadyUs)
      in = BenchWorkloads.setup(spark, workload, kv("sf").toDouble, kv("ops").toInt, seed, out, spans, id)
      val s = spans.end(id)
      setupS += (if (rep == 0) s.seconds else s.seconds + sparkS)
    }

    // ---- builds: untimed warm-up, then `timedBuilds` timed builds ----
    // Timed build i samples with its own seed, so the accuracy metrics and the
    // forks' answer times average over several synopses of the same data.
    def buildSeed(i: Int): Long = (seed + 2) * 1000 + i
    var attempted = 0L
    var failed    = 0L
    def build(i: Int): Option[PassBuilder.BuildResult] = {
      attempted += 1
      try Some(PassBuilder.build(in.df, in.predCols, in.aggCol, in.partitioner, in.alloc, seed = buildSeed(i)))
      catch { case e: Exception => failed += 1; e.printStackTrace(); None }
    }
    for (i <- 0 until kv("warmup_builds").toInt) build(-1 - i)
    val buildS   = ArrayBuffer.empty[Double]
    val synopses = ArrayBuffer.empty[PassSynopsis]
    for (i <- 0 until timedBuilds) {
      System.gc()
      val id = spans.begin(s"build[$i]", 0)
      val r  = build(i)
      buildS += spans.end(id).seconds
      r.foreach(synopses += _.synopsis)
    }
    require(synopses.nonEmpty, "every timed build failed")

    // ---- reference answers, correctness (AnswerCheck) and accuracy
    // (Harness definitions, pooled over the timed builds' synopses) ----
    val n = in.queries.length
    val relErrs, ciRatios = ArrayBuffer.empty[Double]
    var covered, ciTotal = 0
    for ((syn, b) <- synopses.zipWithIndex) {
      val refs = new Array[Estimate](n)
      for (i <- 0 until n) {
        attempted += 1
        val truth = in.truths(i)
        val fault = try {
          val e = syn.answer(in.queries(i), in.aggs(i))
          refs(i) = e
          if (!truth.isNaN && truth != 0.0) {
            relErrs += math.abs(e.value - truth) / math.abs(truth)
            if (!e.ciHalf.isNaN) {
              ciRatios += e.ciHalf / math.abs(truth)
              ciTotal += 1
              if (math.abs(e.value - truth) <= e.ciHalf + 1e-9 * math.abs(truth)) covered += 1
            }
          }
          AnswerCheck.fault(e, truth)
        } catch { case e: Exception => e.printStackTrace(); Some("threw") }
        for (why <- fault) {
          failed += 1
          Console.err.println(s"answer check failed ($why): build $b query $i ${in.aggs(i)} " +
                              s"${in.queries(i)} truth=$truth estimate=${refs(i)}")
        }
      }
      val oos = new ObjectOutputStream(new BufferedOutputStream(
        new FileOutputStream(out.resolve(s"answer-input-$b.bin").toFile)))
      try {
        oos.writeObject(syn); oos.writeObject(in.queries); oos.writeObject(in.aggs)
        oos.writeObject(refs); oos.writeObject(in.truths)
      } finally oos.close()
    }

    val result = ArrayBuffer[(String, Json.Value)](
      "rows" -> in.rows,
      "queries" -> n,
      "setup_s" -> setupS.toSeq,
      "build_s" -> buildS.toSeq,
      "attempted" -> attempted,
      "failed" -> failed,
      "median_re" -> Harness.median(relErrs.toSeq),
      "ci_coverage" -> (if (ciTotal == 0) Double.NaN else covered.toDouble / ciTotal),
      "ci_half_rel_p50" -> Harness.median(ciRatios.toSeq),
      "storage_mb" -> synopses.map(_.storageBytes / 1048576.0).sum / synopses.length,
      "synopses" -> synopses.length,
    )
    if (trace) result ++= traced(spark, in, spans, kv("traced_builds").toInt, buildSeed(0), sparkS)
    spark.stop()
    Json.write(out.resolve("build.json"), Json.Obj(result.toSeq))
    Json.write(out.resolve("spans-build.json"), spans.toJson)
  }

  private def median(xs: Seq[Double]): Double = Harness.median(xs)

  /** Traced builds: each phase timed by its own call into the layer, then one
    * `PassBuilder.build` under a listener whose SQL executions give the
    * phases' spans inside the build.
    */
  private def traced(spark: SparkSession, in: BenchWorkloads.Input, spans: Spans, builds: Int,
                     buildSeed: Long, sparkS: Double): Seq[(String, Json.Value)] = {
    val sc       = spark.sparkContext
    val listener = new BuildListener
    final case class Traced(phases: Map[String, Double], buildS: Double, untracedS: Double,
                            fullPassSpanS: Double, spanResid: Double, counts: Map[String, Double])
    val runs = (0 until builds).map { j =>
      val ph = spans.begin(s"phases[$j]", 0)
      val p    = spans("prepare", ph)(_ => PassBuilder.prepare(in.df, in.predCols, in.aggCol))
      val rows = spans("opt_sample", ph)(_ => PassBuilder.optSample(p, OptSampleSize, buildSeed))
      spans("optimize", ph) { _ =>
        in.partitioner match {
          case Adp1D(k, agg, dm) =>
            Dp1D.adp(SortedSample1D(rows.map(_.getDouble(0)), rows.map(_.getDouble(1))), k, agg, dm)
          case other => throw new IllegalArgumentException(s"no traced optimizer for $other")
        }
      }
      spans.end(ph)
      val phases = spans.all.filter(_.parent == ph).map(s => s.name -> s.seconds).toMap

      // an untraced build right before the traced one, for the overhead ratio
      System.gc()
      val u = spans.begin(s"untraced_build[$j]", 0)
      PassBuilder.build(in.df, in.predCols, in.aggCol, in.partitioner, in.alloc, seed = buildSeed)
      val untracedS = spans.end(u).seconds

      System.gc()
      sc.addSparkListener(listener)
      PerfbenchAccess.drainListenerBus(sc)
      listener.reset()
      val id = spans.begin(s"traced_build[$j]", 0)
      val r  = PassBuilder.build(in.df, in.predCols, in.aggCol, in.partitioner, in.alloc, seed = buildSeed)
      val b  = spans.end(id)
      PerfbenchAccess.drainListenerBus(sc)
      sc.removeSparkListener(listener)

      // phase spans inside the build, from the SQL executions it ran
      val ex = listener.executions.toSeq
      def interval(phase: String): Option[(Double, Double)] = {
        val xs = ex.filter(_._1 == phase)
        if (xs.isEmpty) None else Some((xs.map(_._2).min * 1000.0, xs.map(_._3).max * 1000.0))
      }
      val pre  = interval("prepare").map { case (s, e) => spans.record("prepare", id, s, e) }
      val opt  = interval("opt_sample").map { case (s, e) => spans.record("opt_sample", id, s, e) }
      val full = interval("full_pass").map { case (s, _) => spans.record("full_pass", id, s, b.endUs) }
      for (o <- opt; f <- full) spans.record("optimize", id, o.endUs, f.startUs)
      val children = spans.all.filter(_.parent == id).map(_.seconds).sum
      val syn = r.synopsis
      val counts = Map(
        "build.spark_jobs" -> listener.jobs.toDouble,
        "build.spark_tasks" -> listener.tasks.toDouble,
        "build.records_read" -> listener.recordsRead.toDouble,
        "build.scans_per_build" -> listener.recordsRead.toDouble / in.rows,
        "build.shuffle_write_bytes" -> listener.shuffleWriteBytes.toDouble,
        "build.executor_cpu_s" -> listener.executorCpuNs / 1e9,
        "build.leaves" -> syn.leaves.length.toDouble,
        "build.samples_stored" -> syn.storedSamples.toDouble,
        "build.opt_sample_rows" -> r.optSampleSize.toDouble,
        "build.undersampled_leaves" ->
          syn.leaves.indices.count(i => syn.leaves(i).count > 0 && syn.samples(i).size <= 1).toDouble,
      )
      Traced(phases, b.seconds, untracedS, full.map(_.seconds).getOrElse(Double.NaN),
             math.abs(b.seconds - children) / b.seconds, counts)
    }

    def med(f: Traced => Double): Double = median(runs.map(f))
    def setupMed(name: String): Double = median(spans.all.filter(_.name == name).map(_.seconds))
    val fullPass = (t: Traced) => t.buildS - t.phases("prepare") - t.phases("opt_sample") - t.phases("optimize")
    Seq[(String, Json.Value)](
      "setup.spark_s" -> sparkS,
      "setup.data_s" -> setupMed("data"),
      "setup.truth_s" -> setupMed("truth"),
      "setup.queries_s" -> setupMed("queries"),
      "build.prepare_s" -> med(_.phases("prepare")),
      "build.opt_sample_s" -> med(_.phases("opt_sample")),
      "build.optimize_s" -> med(_.phases("optimize")),
      "build.full_pass_s" -> med(fullPass),
      // attribution: listener phase spans vs the build span, and the
      // separately-timed phases' remainder vs the listener's full pass
      "attr.build_span_resid" -> runs.map(_.spanResid).max,
      "attr.full_pass_resid" -> runs.map(t => math.abs(fullPass(t) - t.fullPassSpanS) / t.buildS).max,
      "trace.build_ratio" -> med(_.buildS) / med(_.untracedS),
    ) ++ runs.head.counts.keys.toSeq.sorted.map(k => k -> (med(_.counts(k)): Json.Value))
  }
}

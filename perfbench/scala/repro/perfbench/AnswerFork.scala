package repro.perfbench

import java.io.{BufferedInputStream, FileInputStream, ObjectInputStream}
import java.lang.Double.doubleToLongBits
import java.lang.management.ManagementFactory
import java.nio.file.Paths

import repro.core._

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One answer fork: a fresh, Spark-free, single-threaded JVM that loads the
  * synopsis and query list a build wrote, checks every estimate against the
  * exact truth (`AnswerCheck`) and for bit-equality with the build JVM's,
  * warms up, and times whole passes over the queries for `seconds`.
  *
  * Plain mode alternates throughput passes (one clock pair per pass) with
  * latency passes (one clock pair per call). Traced mode times
  * `PartitionTree.mcf` and `answer` per call in each pass and reads the
  * frontier, scan, allocation and GC counters.
  *
  * Usage: `AnswerFork key=value …` with the keys read below; `run.py` passes them.
  */
object AnswerFork {

  def main(args: Array[String]): Unit = {
    val kv      = args.map { a => val i = a.indexOf('='); a.take(i) -> a.drop(i + 1) }.toMap
    val seconds = kv("seconds").toDouble
    val traced  = kv("mode") == "traced"
    val spans   = new Spans
    val forkId  = spans.begin(s"fork[${kv("fork")}]", 0)

    val (syn, qs, aggs, refs, truths) = spans("load", forkId) { _ =>
      val ois = new ObjectInputStream(new BufferedInputStream(new FileInputStream(kv("input"))))
      try (ois.readObject().asInstanceOf[PassSynopsis], ois.readObject().asInstanceOf[Array[Rect]],
           ois.readObject().asInstanceOf[Array[Agg]], ois.readObject().asInstanceOf[Array[Estimate]],
           ois.readObject().asInstanceOf[Array[Double]])
      finally ois.close()
    }
    val n = qs.length

    // before and after timing: each estimate against the truth, and its
    // bit-equality with the build JVM's
    val mismatched, wrong = new Array[Boolean](n)
    def check(): Unit = {
      var i = 0
      while (i < n) {
        val e = syn.answer(qs(i), aggs(i)); val r = refs(i)
        if (r == null ||
            doubleToLongBits(e.value) != doubleToLongBits(r.value) ||
            doubleToLongBits(e.ciHalf) != doubleToLongBits(r.ciHalf) ||
            doubleToLongBits(e.lb) != doubleToLongBits(r.lb) ||
            doubleToLongBits(e.ub) != doubleToLongBits(r.ub) ||
            doubleToLongBits(e.skipRate) != doubleToLongBits(r.skipRate) ||
            e.processedSamples != r.processedSamples) mismatched(i) = true
        for (why <- AnswerCheck.fault(e, truths(i)) if !wrong(i)) {
          wrong(i) = true
          Console.err.println(s"answer check failed ($why): query $i ${aggs(i)} ${qs(i)} truth=${truths(i)} estimate=$e")
        }
        i += 1
      }
    }

    val loops = new AnswerLoops(syn, qs, aggs)
    import loops.{pass, latencyPass}

    // untimed warm-up: the first check, then both kinds of pass in turn until
    // the answer path's own code has been compiled (METHOD.md)
    spans("warmup", forkId) { _ =>
      check()
      val w0  = System.nanoTime()
      val lat = new Array[Long](n)
      while ((System.nanoTime() - w0) / 1e9 < kv("warmup_seconds").toDouble) { pass(); latencyPass(lat) }
    }

    // at least one throughput and one latency pass
    val t0 = System.nanoTime()
    def more(p: Int): Boolean = p < 2 || (System.nanoTime() - t0) / 1e9 < seconds

    val result = ArrayBuffer[(String, Json.Value)]("queries" -> n)
    if (!traced) {
      val wall = ArrayBuffer.empty[Double]
      val lat  = ArrayBuffer.empty[Array[Long]]
      var p    = 0
      while (more(p)) {
        val pid = spans.begin(s"pass[$p]", forkId)
        val aid = spans.begin("answer", pid)
        if (p % 2 == 0) pass() else { val l = new Array[Long](n); latencyPass(l); lat += l }
        val a = spans.end(aid)
        spans.end(pid)
        if (p % 2 == 0) wall += a.seconds
        p += 1
      }
      val perQuery = perQueryLowUs(lat.toSeq, n)
      result ++= Seq[(String, Json.Value)](
        "passes" -> p,
        "qps" -> n / percentile(wall.toArray, PassQuantile),
        "p50_us" -> percentile(perQuery, 0.50),
        "p99_us" -> percentile(perQuery, 0.99),
      )
    } else {
      val tmx  = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
      val tid  = Thread.currentThread().getId
      val gcs  = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
      def gcMs = gcs.map(_.getCollectionTime).sum
      val mcfLat, ansLat = ArrayBuffer.empty[Array[Long]]
      val ansResid = ArrayBuffer.empty[Double] // per pass: |wall − Σ per-call times| / wall
      var allocBytes = 0L
      val gc0 = gcMs
      var p = 0
      while (more(p)) {
        val pid = spans.begin(s"pass[$p]", forkId)
        val ml  = new Array[Long](n)
        spans("mcf", pid) { _ =>
          var i = 0
          while (i < n) {
            val s = System.nanoTime()
            val f = PartitionTree.mcf(syn.root, qs(i), zeroVarRule = syn.zeroVarRule && aggs(i) == Agg.Avg)
            ml(i) = System.nanoTime() - s
            loops.sink += f.visited
            i += 1
          }
        }
        val al = new Array[Long](n)
        val a0 = tmx.getThreadAllocatedBytes(tid)
        val aid = spans.begin("answer", pid)
        latencyPass(al)
        val wall = spans.end(aid).seconds
        ansResid += math.abs(wall - al.sum / 1e9) / wall
        allocBytes += tmx.getThreadAllocatedBytes(tid) - a0
        spans.end(pid)
        mcfLat += ml; ansLat += al
        p += 1
      }
      val gc = gcMs - gc0

      // exact frontier and scan counts, one untimed pass
      var visited, cover, partial, zeroVar, scanned, matched = 0L
      for (i <- 0 until n) {
        val q = qs(i)
        val f = PartitionTree.mcf(syn.root, q, zeroVarRule = syn.zeroVarRule && aggs(i) == Agg.Avg)
        visited += f.visited; cover += f.cover.size; partial += f.partial.size; zeroVar += f.zeroVar.size
        val leafIds = f.partial.iterator.map(_.leafId) ++
          f.zeroVar.iterator.flatMap(z => z.leafLo to z.leafHi)
        for (id <- leafIds; c <- syn.samples(id).coords) {
          scanned += 1
          if (q.contains(c)) matched += 1
        }
      }
      val processed = refs.map(_.processedSamples).sum
      val ans   = perQueryLowUs(ansLat.toSeq, n)
      val mcf   = perQueryLowUs(mcfLat.toSeq, n)
      val rest  = Array.tabulate(n)(i => ans(i) - mcf(i))
      result ++= Seq[(String, Json.Value)](
        "passes" -> p,
        "p50_us" -> percentile(ans, 0.50),
        "answer.mcf_us_p50" -> percentile(mcf, 0.50),
        "answer.rest_us_p50" -> percentile(rest, 0.50),
        "answer.visited_mean" -> visited.toDouble / n,
        "answer.cover_mean" -> cover.toDouble / n,
        "answer.partial_mean" -> partial.toDouble / n,
        "answer.zero_var_mean" -> zeroVar.toDouble / n,
        "answer.samples_scanned_mean" -> processed.toDouble / n,
        "answer.match_frac" -> (if (scanned == 0) 0.0 else matched.toDouble / scanned),
        "answer.skip_rate_mean" -> refs.map(_.skipRate).sum / n,
        "answer.alloc_bytes_per_query" -> allocBytes.toDouble / (p.toLong * n),
        "answer.gc_ms" -> gc.toDouble,
        // attribution: per-call times (mcf + rest) against the answer pass wall
        "attr.answer_resid" -> median(ansResid.toSeq),
        "attr.scanned_equals_processed" -> (scanned == processed),
      )
    }
    check()
    val failed = (0 until n).count(i => mismatched(i) || wrong(i))
    spans.end(forkId)
    result ++= Seq[(String, Json.Value)]("attempted" -> n, "failed" -> failed,
                                         "mismatched" -> mismatched.count(identity), "sink" -> loops.sink.toString)
    Json.write(Paths.get(kv("out")), Json.obj("result" -> Json.Obj(result.toSeq), "spans" -> spans.toJson))
  }

  private def median(xs: Seq[Double]): Double = repro.bench.Harness.median(xs)

  /** The quantile over a fork's timed passes that its answer times take, for
    * the pass wall times (qps) and for each query's per-call times. On a shared
    * host, other tenants slow a fork for stretches of a fraction of a second;
    * a run in a quiet stretch had all 8 forks within 2 % of each other. The
    * lower decile reads the uncontended speed; the median flips between the
    * contended and uncontended levels (METHOD.md).
    */
  private val PassQuantile = 0.10

  /** Per query, the `PassQuantile` of its per-call times (µs) over the passes. */
  private def perQueryLowUs(passes: Seq[Array[Long]], n: Int): Array[Double] =
    Array.tabulate(n)(i => percentile(passes.map(_(i) / 1000.0).toArray, PassQuantile))

  /** Nearest-rank percentile. */
  private def percentile(xs: Array[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }
}

/** The two timed loops. They are a class of their own so that the fork's JVM
  * compiles them after a few passes (`build.fork_jvm_cmd`); left to the usual
  * thresholds, they ran interpreted for the first seconds of timing.
  */
final class AnswerLoops(syn: PassSynopsis, qs: Array[Rect], aggs: Array[Agg]) {
  private val n = qs.length

  /** Every estimate is folded into `sink`, so no call can be optimized away. */
  var sink = 0L
  private def consume(e: Estimate): Unit = sink = sink * 31 + doubleToLongBits(e.value) + e.processedSamples

  /** A throughput pass: a plain loop over the queries. */
  def pass(): Unit = {
    var i = 0
    while (i < n) { consume(syn.answer(qs(i), aggs(i))); i += 1 }
  }

  /** A latency pass: one clock pair per call, into `lat`. */
  def latencyPass(lat: Array[Long]): Unit = {
    var i = 0
    while (i < n) {
      val t0 = System.nanoTime()
      val e  = syn.answer(qs(i), aggs(i))
      lat(i) = System.nanoTime() - t0
      consume(e)
      i += 1
    }
  }
}

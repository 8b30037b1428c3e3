package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.lang.Double.doubleToLongBits
import java.util.concurrent.{Callable, Executors, TimeUnit}

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{PrecompUniformSynopsis, StratifiedSampleSynopsis, UniformSampleSynopsis}

/** The answer path of every sampling synopsis, bit for bit: PASS, ST, US and
  * AQP++/KD-US estimates equal the ones recorded from the recursive-MCF,
  * full-scan answer path, and a PASS synopsis answers the same from 4
  * threads at once and after Java serialization.
  */
class AnswerPathSpec extends AnyFunSuite {

  private val Inf = Double.PositiveInfinity

  /** 1-D data whose values are constant (7.0) below 25, so AVG meets 0-variance nodes. */
  private val (cs, as) = {
    val (c, a) = TestSynopses.genData(800, 11)
    (c, c.indices.map(i => if (c(i) < 25) 7.0 else a(i)).toArray)
  }
  private val cuts = Array(10.0, 20.0, 25.0, 30.0, 45.0, 60.0, 70.0, 85.0)

  private def pass1D: PassSynopsis = TestSynopses.build1D(cs, as, cuts, samplesPerLeaf = 25, seed = 3)

  private def passKd(d: Int, greedy: Boolean): PassSynopsis = {
    val (ps, vs) = TestSynopses.genGrid(2000, d, 16, 40L + d)
    TestSynopses.buildKd(ps, vs, Rect(Array.fill(d)(0.0), Array.fill(d)(16.0)), k = 64, greedy,
                         samplesPerLeaf = 6, seed = d)
  }

  /** A uniform sample of `k` of the rows. */
  private def uniform(ps: Array[Array[Double]], vs: Array[Double], k: Int, seed: Long): LeafSample = {
    val idx = new scala.util.Random(seed).shuffle(ps.indices.toVector).take(k).toArray
    TestSynopses.sample(idx.map(ps), idx.map(vs), ps(0).length)
  }

  /** Probe queries over `box`: random, on the data grid, whole-space, empty,
    * disjoint and NaN-bounded.
    */
  private def queries(box: Rect, seed: Long): Array[Rect] = {
    val d   = box.dims
    val rnd = new scala.util.Random(seed)
    def coord(j: Int): Double = {
      val x = box.lo(j) + rnd.nextDouble() * (box.hi(j) - box.lo(j))
      if (rnd.nextBoolean()) math.floor(x) else x
    }
    val random = Array.fill(120) {
      val a = Array.tabulate(d)(coord); val b = Array.tabulate(d)(coord)
      Rect(Array.tabulate(d)(j => math.min(a(j), b(j))), Array.tabulate(d)(j => math.max(a(j), b(j))))
    }
    val nanLo = Array.fill(d)(-Inf); nanLo(d - 1) = Double.NaN
    random ++ Array(Rect(Array.fill(d)(-Inf), Array.fill(d)(Inf)), Rect(box.lo, box.lo),
                    Rect(Array.fill(d)(-10.0), Array.fill(d)(-5.0)), Rect(nanLo, Array.fill(d)(Inf)))
  }

  private def answers(answer: (Rect, Agg) => Estimate, qs: Array[Rect]): Array[Estimate] =
    for (q <- qs; agg <- Agg.all.toArray) yield answer(q, agg)

  /** A digest of every field's bits. */
  private def digest(es: Array[Estimate]): Long = es.foldLeft(17L) { (h, e) =>
    Seq(e.value, e.ciHalf, e.lb, e.ub, e.skipRate).foldLeft(h)((h, x) => h * 31 + doubleToLongBits(x)) * 31 +
      e.processedSamples
  }

  private def assertSameBits(a: Array[Estimate], b: Array[Estimate], what: String): Unit = {
    assert(a.length == b.length)
    for (i <- a.indices) assert(digest(Array(a(i))) == digest(Array(b(i))), s"$what: answer $i ${a(i)} vs ${b(i)}")
  }

  private val box1D = Rect.range(0, 100)

  /** Each synopsis with its probe queries. */
  private def synopses: Seq[(String, (Rect, Agg) => Estimate, Array[Rect])] = {
    val p1      = pass1D
    val signed  = TestSynopses.build1D(cs, TestSynopses.straddleZero(as), cuts, samplesPerLeaf = 25, seed = 3)
    val kd2     = passKd(2, greedy = true)
    val kd3     = passKd(3, greedy = false)
    val rows1D  = cs.map(Array(_))
    val (aqpTree, _) =
      TestSynopses.populate(PartitionTree.build1D(cuts, Rect.range(cs.min, Math.nextUp(cs.max))), rows1D, as)
    val (ps2, vs2)    = TestSynopses.genGrid(2000, 2, 16, 42L)
    val box2          = Rect(Array(0.0, 0.0), Array(16.0, 16.0))
    val (kdusTree, _) = TestSynopses.populate(KdTree.buildBalanced(ps2, vs2, k = 16, box2), ps2, vs2)
    Seq(
      ("PASS 1-D", p1.answer _, queries(box1D, 1)),
      ("PASS 1-D signed", signed.answer _, queries(box1D, 8)),
      ("PASS kd d=2", kd2.answer _, queries(box2, 2)),
      ("PASS kd d=3", kd3.answer _, queries(Rect(Array.fill(3)(0.0), Array.fill(3)(16.0)), 3)),
      ("ST", new StratifiedSampleSynopsis(p1).answer _, queries(box1D, 4)),
      ("US", new UniformSampleSynopsis(uniform(rows1D, as, 150, 5), cs.length).answer _, queries(box1D, 5)),
      ("AQP++", new PrecompUniformSynopsis(aqpTree, uniform(rows1D, as, 150, 6), cs.length).answer _,
       queries(box1D, 6)),
      ("KD-US", new PrecompUniformSynopsis(kdusTree, uniform(ps2, vs2, 200, 7), ps2.length).answer _,
       queries(box2, 7)),
    )
  }

  /** The digests of `synopses`' answers from the recursive-MCF, full-scan
    * answer path that the flat traversal and the aggregate-aware scan replaced;
    * "PASS 1-D signed" from the flat path that still folded the cover and each
    * aggregate's bounds in loops of their own. The 1-D digests (PASS, ST, US,
    * AQP++) were recorded again when 1-D SUM/AVG runs moved from the row loop
    * to compensated prefix sums. That moved only `value` and `ciHalf`, by at
    * most 3.1e-15 and 5.0e-13 relative; the d > 1 digests did not move.
    */
  private val recorded = Map(
    "PASS 1-D"        -> -2816138483329175594L,
    "PASS 1-D signed" -> 6579575638004954803L,
    "PASS kd d=2"     -> 1542559968924792100L,
    "PASS kd d=3"     -> -7728586348667109736L,
    "ST"              -> -5320517086728124706L,
    "US"              -> -8447642554194671182L,
    "AQP++"           -> -4086912236082801597L,
    "KD-US"           -> -8391532771942810156L,
  )

  test("PASS, ST, US and AQP++/KD-US answer bit for bit as the recursive-MCF, full-scan path did") {
    val got = synopses.map { case (name, answer, qs) => name -> digest(answers(answer, qs)) }
    for ((name, h) <- got) assert(h == recorded(name), s"$name: digest $h")
  }

  test("4 threads answering one PASS synopsis agree bit for bit with a serial pass") {
    for (syn <- Seq(pass1D, passKd(2, greedy = true))) {
      val qs     = queries(syn.root.bounds, 9)
      val serial = answers(syn.answer, qs)
      val pool   = Executors.newFixedThreadPool(4)
      try {
        val tasks = (0 until 4).map { _ =>
          pool.submit(new Callable[Array[Estimate]] {
            def call(): Array[Estimate] = (0 until 20).map(_ => answers(syn.answer, qs)).last
          })
        }
        for ((task, t) <- tasks.zipWithIndex) assertSameBits(task.get(), serial, s"thread $t")
      } finally {
        pool.shutdown()
        pool.awaitTermination(10, TimeUnit.SECONDS)
      }
    }
  }

  test("a Java-serialized PASS synopsis answers bit for bit as the original") {
    for (syn <- Seq(pass1D, passKd(3, greedy = true))) {
      val qs     = queries(syn.root.bounds, 10)
      val before = answers(syn.answer, qs)
      val bytes  = new ByteArrayOutputStream()
      val out    = new ObjectOutputStream(bytes)
      out.writeObject(syn); out.close()
      val in   = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
      val copy = in.readObject().asInstanceOf[PassSynopsis]
      assertSameBits(answers(copy.answer, qs), before, "deserialized")
    }
  }
}

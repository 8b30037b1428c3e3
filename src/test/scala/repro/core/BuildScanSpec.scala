package repro.core

import java.nio.file.{Files, Path}

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, SparkWork}
import repro.baselines.{AqpPlusPlus, UniformSampling}

/** The build scan over Catalyst rows against its oracle, the `Row`-decoding
  * Dataset scan ([[RowScan]]): every build must come out bit-equal, over a
  * cached and a parquet-backed input holding null and NaN coordinates and null
  * values. Also pins the Spark work of one build: two SQL executions (the
  * first started from `prepare`), two jobs, no shuffle, and each input row
  * read exactly twice.
  */
class BuildScanSpec extends SparkSpec {

  private val optSize = 1000

  /** x: double, y: int (cast to double by the build), v: double. */
  private lazy val raw: DataFrame = {
    import spark.implicits._
    val rnd   = new scala.util.Random(31)
    val clean = Seq.fill(6000)((Option(rnd.nextDouble() * 1000), Option(rnd.nextInt(40)),
                                Option(math.exp(rnd.nextGaussian()))))
    val dirty = Seq[(Option[Double], Option[Int], Option[Double])](
      (Some(Double.NaN), Some(1), Some(5.0)), (None, Some(2), Some(5.0)), (Some(10.0), None, Some(5.0)),
      (Some(30.0), Some(3), None), (Some(Double.NaN), None, None), (Some(40.0), Some(4), None))
    rnd.shuffle(clean ++ dirty).toDF("x", "y", "v")
  }

  private lazy val parquetDir: Path = Files.createTempDirectory("build-scan-spec")

  private lazy val inputs: Map[String, DataFrame] = {
    val cached = raw.persist()
    cached.count()
    val dir = parquetDir.resolve("rows").toString
    raw.repartition(3).write.parquet(dir)
    Map("cached" -> cached, "parquet" -> spark.read.parquet(dir))
  }

  override def afterAll(): Unit = {
    try {
      raw.unpersist()
      if (Files.exists(parquetDir))
        Files.walk(parquetDir).sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
    } finally super.afterAll()
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def treeParts(t: FlatTree): Seq[(String, Seq[Long])] = Seq(
    "dims" -> Seq(t.dims.toLong), "lo" -> bits(t.lo), "hi" -> bits(t.hi), "skip" -> t.skip.toSeq.map(_.toLong),
    "leafId" -> t.leafId.toSeq.map(_.toLong), "leafLo" -> t.leafLo.toSeq.map(_.toLong),
    "leafHi" -> t.leafHi.toSeq.map(_.toLong), "count" -> t.count.toSeq, "sum" -> bits(t.sum),
    "min" -> bits(t.min), "max" -> bits(t.max))

  private def sampleParts(name: String, s: LeafSample): Seq[(String, Seq[Long])] =
    Seq(s"$name.values" -> bits(s.values), s"$name.columns" -> s.columns.toSeq.flatMap(bits))

  /** The names of the parts where `a` and `b` differ; an empty list means bit-equal. */
  private def differing(a: Seq[(String, Seq[Long])], b: Seq[(String, Seq[Long])]): Seq[String] = {
    assert(a.map(_._1) == b.map(_._1))
    a.zip(b).collect { case ((n, x), (_, y)) if x != y => n }
  }

  private def buildParts(syn: PassSynopsis, dropped: Long, optRows: Int): Seq[(String, Seq[Long])] =
    Seq("totalRows" -> Seq(syn.totalRows), "droppedRows" -> Seq(dropped), "optRows" -> Seq(optRows.toLong)) ++
      treeParts(syn.tree) ++ syn.samples.indices.flatMap(i => sampleParts(s"sample($i)", syn.samples(i)))

  private val shapes = Seq(
    "Adp1D" -> (Seq("x"), PassBuilder.Adp1D(16, Agg.Sum)),
    "KdGreedy" -> (Seq("x", "y"), PassBuilder.KdGreedy(16, Agg.Sum)))
  private val allocs = Seq(PassBuilder.Rate(0.05), PassBuilder.TotalBudget(600), PassBuilder.PerLeaf(20))

  for (input <- Seq("cached", "parquet"); (shape, (cols, partitioner)) <- shapes; alloc <- allocs) {
    test(s"a build is bit-equal to the Row-scan oracle's ($input, $shape, $alloc)") {
      val df  = inputs(input)
      val got = PassBuilder.build(df, cols, "v", partitioner, alloc, optSampleSize = optSize, seed = 7)
      val p   = PassBuilder.prepare(df, cols, "v", seed = 7, optSampleSize = optSize, scan = RowScan)
      val ref = PassBuilder.buildPrepared(p, partitioner, alloc, seed = 7, scan = RowScan)
      assert(got.droppedRows == (if (cols.length == 1) 5 else 6))
      assert(got.synopsis.storedSamples > 100)
      val diff = differing(buildParts(got.synopsis, got.droppedRows, got.optSampleSize),
                           buildParts(ref, p.droppedRows, p.optValues.length))
      assert(diff.isEmpty, s"differs in ${diff.take(5).mkString(", ")}")
    }
  }

  for (input <- Seq("cached", "parquet")) {
    test(s"AQP++ and US samples and trees are bit-equal to the Row-scan oracle's ($input)") {
      val df        = inputs(input)
      val (aqp, _)  = AqpPlusPlus.build(df, Seq("x"), "v", partitions = 8, totalSamples = 300, seed = 3)
      val p         = PassBuilder.prepare(df, Seq("x"), "v", seed = 3, uniformSize = 300, scan = RowScan)
      val pass      = PassBuilder.buildPrepared(p, PassBuilder.Cuts1D(AqpPlusPlus.hillClimbCuts(_, 8, seed = 3)),
                                                PassBuilder.PerLeaf(0), seed = 3, scan = RowScan)
      assert(aqp.sample.size == 300 && aqp.totalRows == p.totalRows)
      val aqpDiff = differing(treeParts(aqp.tree) ++ sampleParts("uniform", aqp.sample),
                              treeParts(pass.tree) ++ sampleParts("uniform", p.uniform))
      assert(aqpDiff.isEmpty, s"AQP++ differs in ${aqpDiff.mkString(", ")}")
      val (us, _) = UniformSampling.build(df, Seq("x", "y"), "v", k = 250, seed = 4)
      val q = PassBuilder.prepare(df, Seq("x", "y"), "v", seed = 4, optSampleSize = 0, uniformSize = 250,
                                  scan = RowScan)
      assert(us.k == 250 && us.totalRows == q.totalRows)
      assert(differing(sampleParts("us", us.sample), sampleParts("us", q.uniform)).isEmpty)
    }
  }

  for (input <- Seq("cached", "parquet"); (shape, (cols, partitioner)) <- shapes) {
    test(s"a build runs two SQL executions and two jobs, shuffles nothing and reads each row twice ($input, $shape)") {
      val df = inputs(input)
      val n  = df.count()
      val e  = SparkWork.of(spark.sparkContext) {
        PassBuilder.build(df, cols, "v", partitioner, PassBuilder.Rate(0.05), optSampleSize = optSize, seed = 9)
      }
      e.synchronized {
        assert(e.executions.length == 2, e.executions.mkString("\n---\n"))
        assert(e.executions(0).contains("PassBuilder$.prepare"), e.executions(0))
        assert(!e.executions(1).contains("PassBuilder$.prepare"), e.executions(1))
        assert(e.jobs == 2)
        assert(e.shuffleBytes == 0L)
        assert(e.rowsRead == 2 * n, s"read ${e.rowsRead} rows, N = $n")
      }
    }
  }
}

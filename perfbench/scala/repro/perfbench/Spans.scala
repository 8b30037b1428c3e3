package repro.perfbench

import scala.collection.mutable

/** In-memory span recorder. A span is (id, parent, name, start, end) with
  * times in epoch microseconds, so spans from the JVMs of one run can be
  * merged on one time axis by `run.py`. Parent 0 is the run's `workload` span.
  * Spans are only kept in memory; the caller writes `toJson` once at exit.
  */
final class Spans {
  final case class Span(id: Int, parent: Int, name: String, startUs: Double, endUs: Double) {
    def seconds: Double = (endUs - startUs) / 1e6
  }

  private val baseEpochUs = System.currentTimeMillis() * 1000.0
  private val baseNanos   = System.nanoTime()
  private val done        = mutable.ArrayBuffer.empty[Span]
  private val open        = mutable.Map.empty[Int, (String, Int, Double)]
  private var nextId      = 1

  /** Epoch microseconds of a `System.nanoTime` reading of this JVM. */
  def epochUs(nanos: Long): Double = baseEpochUs + (nanos - baseNanos) / 1000.0
  def nowUs: Double                = epochUs(System.nanoTime())

  /** Opens a span that started at `startUs`; close it with `end`. */
  def begin(name: String, parent: Int, startUs: Double = nowUs): Int = {
    val id = nextId
    nextId += 1
    open(id) = (name, parent, startUs)
    id
  }

  def end(id: Int, endUs: Double = nowUs): Span = {
    val (name, parent, startUs) = open.remove(id).get
    val s = Span(id, parent, name, startUs, endUs)
    done += s
    s
  }

  /** Records a span measured elsewhere. */
  def record(name: String, parent: Int, startUs: Double, endUs: Double): Span =
    end(begin(name, parent, startUs), endUs)

  /** Runs `body` inside a span; `body` receives the span id for its children. */
  def apply[T](name: String, parent: Int)(body: Int => T): T = {
    val id = begin(name, parent)
    try body(id)
    finally end(id)
  }

  def all: Seq[Span] = done.toSeq

  def toJson: Json.Value = Json.Arr(done.toSeq.map { s =>
    Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
             "start_us" -> s.startUs, "end_us" -> s.endUs)
  })
}

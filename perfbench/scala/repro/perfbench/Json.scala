package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

/** Minimal JSON writer for the result files the JVMs hand to `run.py`. */
object Json {
  sealed trait Value
  final case class Num(v: Double)                  extends Value
  final case class Str(v: String)                  extends Value
  final case class Bool(v: Boolean)                extends Value
  final case class Arr(vs: Seq[Value])             extends Value
  final case class Obj(fields: Seq[(String, Value)]) extends Value

  implicit def fromDouble(v: Double): Value   = Num(v)
  implicit def fromLong(v: Long): Value       = Num(v.toDouble)
  implicit def fromInt(v: Int): Value         = Num(v.toDouble)
  implicit def fromString(v: String): Value   = Str(v)
  implicit def fromBoolean(v: Boolean): Value = Bool(v)
  implicit def fromDoubles(vs: Seq[Double]): Value = Arr(vs.map(Num))

  def obj(fields: (String, Value)*): Obj = Obj(fields)

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def render(v: Value): String = v match {
    // repr of a double round-trips exactly; NaN/inf have no JSON form
    case Num(d)     => if (d.isNaN || d.isInfinite) "null" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
    case Str(s)     => quote(s)
    case Bool(b)    => b.toString
    case Arr(vs)    => vs.map(render).mkString("[", ",", "]")
    case Obj(fs)    => fs.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
  }

  def write(path: Path, v: Value): Unit =
    Files.write(path, render(v).getBytes(StandardCharsets.UTF_8))
}

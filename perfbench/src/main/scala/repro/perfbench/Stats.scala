package repro.perfbench

/** Order statistics and the one-line JSON result. */
object Stats {

  /** Nearest-rank quantile of unsorted samples, q in (0, 1]. */
  def quantile(xs: Array[Long], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.clone(); java.util.Arrays.sort(s)
    s(math.max(0, math.ceil(q * s.length).toInt - 1)).toDouble
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def seconds(nanos: Long): Double = nanos / 1e9

  /** Wall time of `f` in nanoseconds, with its result. */
  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, System.nanoTime() - t0)
  }

  final case class Metric(name: String, value: Double, unit: String)

  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def resultJson(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map(m => s"""${str(m.name)}: {"value": ${num(m.value)}, "unit": ${str(m.unit)}}""")
        .mkString(", ") + "}}"

  def objectJson(fields: Seq[(String, Any)]): String =
    fields.map {
      case (k, v: String) => s"${str(k)}: ${str(v)}"
      case (k, v: Double) => s"${str(k)}: ${num(v)}"
      case (k, v) => s"${str(k)}: $v"
    }.mkString("{", ", ", "}")
}

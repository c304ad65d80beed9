package repro.vocalize

import java.util.Locale

/** A selected fact ready for vocalization: scope as (dimension → value)
  * plus the typical value and support.
  */
final case class SummaryFact(scope: Map[String, String], typical: Double, support: Long)

/** How a target column is phrased and formatted in speech output. Numbers
  * use `Locale.ROOT`, so the decimal mark is "." whatever the JVM's default
  * locale.
  */
final case class TargetStyle(phrase: String, fmt: Double => String)

object TargetStyle {
  /** "About 12.5 minutes …" */
  def unit(phrase: String, unitName: String): TargetStyle =
    TargetStyle(phrase, v => "%.1f %s".formatLocal(Locale.ROOT, v, unitName))

  /** Rates in [0,1] spoken as "N out of 1000" (Table II style). */
  def perThousand(phrase: String): TargetStyle =
    TargetStyle(phrase, v => "%.0f out of 1000".formatLocal(Locale.ROOT, v * 1000))

  /** Probabilities spoken as percentages. */
  def percent(phrase: String): TargetStyle =
    TargetStyle(phrase, v => "%.0f%%".formatLocal(Locale.ROOT, v * 100))

  def plain(phrase: String): TargetStyle =
    TargetStyle(phrase, v => "%.1f".formatLocal(Locale.ROOT, v))
}

/** Speech rendering (§III): facts fill a fixed template, and the speech is
  * prefixed with a description of the summarized data subset so users know
  * the semantics. Style follows the paper's Table II examples:
  * "About X … overall. It is Y for … . It is Z for …".
  */
object SpeechTemplates {

  def scopeText(scope: Map[String, String]): String =
    if (scope.isEmpty) "overall"
    else "for " + scope.toSeq.sortBy(_._1).map(_._2).mkString(" and ")

  def render(style: TargetStyle, queryPredicates: Map[String, String],
             facts: Seq[SummaryFact]): String = {
    val prefix =
      if (queryPredicates.isEmpty) ""
      else "Considering " +
        queryPredicates.toSeq.sortBy(_._1).map { case (d, v) => s"$d $v" }
          .mkString(" and ") + ". "
    val sentences = facts.zipWithIndex.map { case (f, i) =>
      if (i == 0) s"About ${style.fmt(f.typical)} ${style.phrase} ${scopeText(f.scope)}."
      else s"It is ${style.fmt(f.typical)} ${scopeText(f.scope)}."
    }
    if (facts.isEmpty) prefix + "No data is available."
    else prefix + sentences.mkString(" ")
  }
}

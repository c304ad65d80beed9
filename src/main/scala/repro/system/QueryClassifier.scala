package repro.system

import repro.data.VoiceData
import repro.data.VoiceData.DatasetSpec

/** Voice-request categories of Table III. */
sealed abstract class RequestType(val label: String)
object RequestType {
  case object Help extends RequestType("Help")
  case object Repeat extends RequestType("Repeat")
  case object SQuery extends RequestType("S-Query")
  case object UQuery extends RequestType("U-Query")
  case object Other extends RequestType("Other")
  val all: Seq[RequestType] = Seq(Help, Repeat, SQuery, UQuery, Other)
}

/** What the text-to-query extractor knows (§III): spoken synonyms for each
  * target column plus the dimension values predicates may bind.
  */
final case class Vocabulary(
    targetSynonyms: Map[String, Seq[String]],
    dimValues: Map[String, Seq[String]]) {

  /** Per target, each synonym as the classifier looks for it in normalized
    * text: alone, and with a plural "s".
    */
  @transient private[system] lazy val synonymNeedles: Seq[(String, Seq[(String, String)])] =
    targetSynonyms.toSeq.map { case (t, syns) =>
      t -> syns.map(s => (" " + s.toLowerCase + " ", " " + s.toLowerCase + "s "))
    }

  /** Per dimension in name order, each value with the normalized form the
    * classifier looks for. Single-character values (e.g. pollster grades
    * "A".."D") collide with ordinary words ("a") and are never reliable
    * speech evidence, so they are left out.
    */
  @transient private[system] lazy val valueNeedles: Seq[(String, Seq[(String, String)])] =
    dimValues.toSeq.sortBy(_._1).map { case (d, vals) =>
      d -> vals.map(v => (v, QueryClassifier.normalize(v))).filter(_._2.trim.length >= 2)
    }
}

object Vocabulary {

  /** Vocabulary for one of the public deployments. Synonyms are the phrases
    * the Google-Assistant extractor would be trained on.
    */
  def forDataset(spec: DatasetSpec): Vocabulary = {
    val synonyms: Map[String, Seq[String]] = Map(
      "delay" -> Seq("delay", "delays", "late"),
      "cancelled" -> Seq("cancellation", "cancellations", "cancelled"),
      "hearing" -> Seq("hearing loss", "hearing impairment", "hearing"),
      "visual" -> Seq("visual impairment", "visually impaired", "blindness"),
      "cognitive" -> Seq("cognitive impairment", "cognitive"),
      "ambulatory" -> Seq("ambulatory difficulty", "walking difficulty"),
      "selfcare" -> Seq("self care difficulty", "self care"),
      "independent" -> Seq("independent living difficulty", "independent living"),
      "competence" -> Seq("competence", "confidence"),
      "optimism" -> Seq("optimism"),
      "job_sat" -> Seq("job satisfaction", "satisfaction"),
      "salary" -> Seq("salary", "pay", "income"),
      "years_code" -> Seq("coding experience", "years of coding"),
      "work_week" -> Seq("working hours", "work week"),
      "pct" -> Seq("poll share", "support", "polling"),
    )
    val dimVals: Map[String, Seq[String]] = spec.name match {
      case "Flights" => Map(
        "airline" -> VoiceData.airlines, "season" -> VoiceData.seasons,
        "day_part" -> VoiceData.dayParts, "month" -> VoiceData.months,
        "origin_region" -> VoiceData.regions,
        "carrier_class" -> VoiceData.carrierClasses)
      case "ACS NY" => Map(
        "borough" -> VoiceData.boroughs, "age_group" -> VoiceData.ageGroups,
        "sex" -> VoiceData.sexes)
      case "Stack Overflow" => Map(
        "country" -> VoiceData.countries, "ed_level" -> VoiceData.edLevels,
        "dev_type" -> VoiceData.devTypes, "gender" -> VoiceData.genders,
        "age_group" -> VoiceData.soAges, "org_size" -> VoiceData.orgSizes,
        "employment" -> VoiceData.employments)
      case "Primaries" => Map(
        "candidate" -> VoiceData.candidates, "state" -> VoiceData.states,
        "poll_month" -> VoiceData.pollMonths,
        "pollster_grade" -> VoiceData.pollsterGrades,
        "population" -> VoiceData.populations)
      case _ => Map.empty
    }
    Vocabulary(synonyms.view.filterKeys(spec.targets.contains).toMap, dimVals)
  }
}

/** A parsed supported query. */
final case class ParsedQuery(target: String, predicates: Map[String, String])

/** Rule-based request classification and query extraction — the run-time
  * analog of the trained intent extractor (§III), used to produce Table III
  * and to route look-ups in [[QueryEngine]].
  */
object QueryClassifier {

  private val helpWords = Seq("help", "what can i ask", "how do i use", "instructions")
  private val repeatWords = Seq("repeat", "say that again", "once more", "come again")
  private val unsupportedWords = Seq(
    "highest", "lowest", "maximum", "minimum", " max ", " min ", "most ",
    "least ", "best", "worst", "compare", "comparison", "versus", " vs ",
    "difference between", "flight number", "specific flight")

  private val NonAlnum = "[^a-z0-9 ]".r
  private val Spaces = "\\s+".r

  /** Lowercase, blank everything but letters and digits, collapse spaces,
    * and pad with one space on each side.
    */
  private[system] def normalize(text: String): String =
    " " + Spaces.replaceAllIn(NonAlnum.replaceAllIn(text.toLowerCase, " "), " ").trim + " "

  /** Extract target + predicates, if the text maps to a supported query. */
  def parse(text: String, vocab: Vocabulary, maxQueryLen: Int = 2): Option[ParsedQuery] =
    parseNormalized(normalize(text), vocab, maxQueryLen)

  private def parseNormalized(norm: String, vocab: Vocabulary, maxQueryLen: Int): Option[ParsedQuery] = {
    val target = vocab.synonymNeedles
      .flatMap { case (t, syns) =>
        syns.collect { case (one, plural) if norm.contains(one) || norm.contains(plural) => (t, one.length) }
      }
      .sortBy(-_._2).headOption.map(_._1)
    val preds = vocab.valueNeedles.flatMap { case (d, vals) =>
      vals.collectFirst { case (v, needle) if norm.contains(needle) => d -> v }
    }.toMap
    target match {
      case Some(t) if preds.size <= maxQueryLen => Some(ParsedQuery(t, preds))
      case _ => None
    }
  }

  def classify(text: String, vocab: Vocabulary, maxQueryLen: Int = 2): RequestType = {
    val norm = normalize(text)
    if (helpWords.exists(norm.contains)) RequestType.Help
    else if (repeatWords.exists(norm.contains)) RequestType.Repeat
    else {
      val unsupported = unsupportedWords.exists(w =>
        norm.contains(if (w.startsWith(" ")) w else " " + w))
      parseNormalized(norm, vocab, maxQueryLen) match {
        case Some(_) if !unsupported => RequestType.SQuery
        case Some(_) => RequestType.UQuery
        case None =>
          val mentionsData = unsupported ||
            vocab.valueNeedles.exists(_._2.exists { case (_, needle) => norm.contains(needle) })
          if (mentionsData) RequestType.UQuery else RequestType.Other
      }
    }
  }
}

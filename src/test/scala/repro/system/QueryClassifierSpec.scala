package repro.system

import org.scalatest.funsuite.AnyFunSuite
import repro.data.VoiceData

/** Tests for request classification and query extraction (§III, Table III). */
class QueryClassifierSpec extends AnyFunSuite {

  private val flightsVocab = Vocabulary.forDataset(VoiceData.Flights)
  private val soVocab = Vocabulary.forDataset(VoiceData.StackOverflow)
  private val acsVocab = Vocabulary.forDataset(VoiceData.AcsNY)

  import RequestType._

  test("help requests are recognized") {
    assert(QueryClassifier.classify("help", flightsVocab) == Help)
    assert(QueryClassifier.classify("Can you help me?", flightsVocab) == Help)
    assert(QueryClassifier.classify("what can I ask you", flightsVocab) == Help)
  }

  test("repeat requests are recognized") {
    assert(QueryClassifier.classify("repeat that please", flightsVocab) == Repeat)
    assert(QueryClassifier.classify("say that again", flightsVocab) == Repeat)
  }

  test("the paper's example query is a supported query") {
    // "cancellations in Winter?" (Example 5)
    assert(QueryClassifier.classify("cancellations in Winter?", flightsVocab) == SQuery)
  }

  test("supported query parses into target and predicates") {
    val q = QueryClassifier.parse("cancellations in Winter", flightsVocab).get
    assert(q.target == "cancelled")
    assert(q.predicates == Map("season" -> "Winter"))
  }

  test("two-predicate queries parse fully") {
    val q = QueryClassifier.parse("what is the delay for AA in Winter", flightsVocab).get
    assert(q.target == "delay")
    assert(q.predicates == Map("airline" -> "AA", "season" -> "Winter"))
  }

  test("zero-predicate queries are supported") {
    val q = QueryClassifier.parse("what is the average delay", flightsVocab).get
    assert(q.target == "delay" && q.predicates.isEmpty)
  }

  test("the paper's comparison example is unsupported") {
    // §VIII-D: "make a comparison between job satisfaction between men and women"
    assert(QueryClassifier.classify(
      "make a comparison of job satisfaction between man and woman", soVocab) == UQuery)
  }

  test("extremum queries are unsupported") {
    assert(QueryClassifier.classify(
      "which airline has the highest delay", flightsVocab) == UQuery)
  }

  test("queries about unavailable data are unsupported") {
    assert(QueryClassifier.classify(
      "what is the delay of flight number DL1234", flightsVocab) == UQuery)
  }

  test("chit-chat is classified as Other") {
    assert(QueryClassifier.classify("hello there", flightsVocab) == Other)
    assert(QueryClassifier.classify("play some music", flightsVocab) == Other)
    assert(QueryClassifier.classify("thank you", flightsVocab) == Other)
  }

  test("multi-word target synonyms are matched") {
    val q = QueryClassifier.parse("job satisfaction in Germany", soVocab).get
    assert(q.target == "job_sat")
    assert(q.predicates == Map("country" -> "Germany"))
  }

  test("ACS synonyms map to the right targets") {
    val q = QueryClassifier.parse("visual impairment for elder in Brooklyn", acsVocab).get
    assert(q.target == "visual")
    assert(q.predicates == Map("age_group" -> "elder", "borough" -> "Brooklyn"))
  }

  test("values with punctuation are matched") {
    val q = QueryClassifier.parse("what is the salary for 25-34", soVocab).get
    assert(q.target == "salary" && q.predicates == Map("age_group" -> "25-34"))
    val r = QueryClassifier.parse("what is the salary for 55+ and 5000+", soVocab).get
    assert(r.predicates == Map("age_group" -> "55+", "org_size" -> "5000+"))
    val o = QueryClassifier.parse("job satisfaction for 100-499 in Germany", soVocab).get
    assert(o.predicates == Map("org_size" -> "100-499", "country" -> "Germany"))
    assert(QueryClassifier.classify("what is the salary for 25-34", soVocab) == SQuery)
  }

  test("parse is case-insensitive") {
    val q = QueryClassifier.parse("DELAYS IN WINTER", flightsVocab)
    assert(q.exists(_.target == "delay"))
  }

  test("queries with too many predicates are not parsed as supported") {
    val q = QueryClassifier.parse(
      "delay for AA in Winter in the Northeast in the evening", flightsVocab,
      maxQueryLen = 2)
    assert(q.isEmpty)
  }

  test("vocabulary restricts targets to the dataset") {
    assert(!flightsVocab.targetSynonyms.contains("pct"))
    assert(Vocabulary.forDataset(VoiceData.Primaries).targetSynonyms.contains("pct"))
  }

  test("classifier recovers generated labels with high accuracy") {
    val counts = Map[RequestType, Int](Help -> 10, Repeat -> 5, SQuery -> 20,
      UQuery -> 10, Other -> 10)
    Seq(flightsVocab, soVocab, Vocabulary.forDataset(VoiceData.Primaries)).foreach { vocab =>
      val log = QueryLogGen.generate(vocab, counts, seed = 3)
      val correct = log.count { case (text, cat) =>
        QueryClassifier.classify(text, vocab) == cat
      }
      assert(correct >= (log.length * 0.85).toInt,
        s"accuracy ${correct.toDouble / log.length}")
    }
  }

  test("log generation is deterministic per seed") {
    val counts = Map[RequestType, Int](Help -> 3, SQuery -> 3)
    val a = QueryLogGen.generate(flightsVocab, counts, 9)
    val b = QueryLogGen.generate(flightsVocab, counts, 9)
    assert(a == b)
  }

  test("log generation honors requested counts") {
    val counts = Map[RequestType, Int](Help -> 4, Repeat -> 2, SQuery -> 7,
      UQuery -> 3, Other -> 5)
    val log = QueryLogGen.generate(flightsVocab, counts, 1)
    assert(log.length == 21)
    counts.foreach { case (cat, n) =>
      assert(log.count(_._2 == cat) == n, cat.label)
    }
  }
}

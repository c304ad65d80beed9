package repro.integration

import repro.SparkSpec
import repro.data.VoiceData
import repro.system._

/** End-to-end: configuration → batch pre-processing (Spark job) → run-time
  * voice request → classified → looked up → speech text.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val spec = VoiceData.Flights
  private lazy val sf = 0.0005 // ~2.9k rows: fast but non-trivial
  private lazy val table =
    Encoding.fromDataFrame(spec.df(spark, sf), spec.dims, spec.targets)
  private lazy val config = SummarizationConfig(spec, maxQueryLen = 1)
  private lazy val engineAndStats = {
    val (summaries, stats) = Preprocessor.run(spark, table, config, "go")
    val e = QueryEngine.fromDataset(summaries)
    summaries.unpersist()
    (e, stats)
  }
  private lazy val engine = engineAndStats._1
  private lazy val vocab = Vocabulary.forDataset(spec)

  test("pre-processing generates one speech per non-empty query subset") {
    val (e, stats) = engineAndStats
    assert(e.size > 0)
    assert(e.size <= stats.numProblems)
  }

  test("the Example 5 flow: classify, parse, look up, speak") {
    val text = "cancellations in Winter?"
    assert(QueryClassifier.classify(text, vocab) == RequestType.SQuery)
    val q = QueryClassifier.parse(text, vocab).get
    val answer = engine.lookup(q.target, q.predicates)
    assert(answer.isDefined)
    val s = answer.get
    assert(s.target == "cancelled")
    assert(s.speech.contains("cancellation probability"))
    assert(s.speech.startsWith("Considering season Winter."))
  }

  test("every supported single-predicate query gets an exact answer") {
    val probs = ProblemGenerator.problems(table, config)
    probs.foreach { p =>
      assert(engine.exact(p.target, p.predicates.toMap).isDefined, p.key)
    }
  }

  test("unsupported two-predicate queries fall back to a containing subset") {
    // maxQueryLen = 1 pre-processing: a 2-predicate query must fall back.
    val ans = engine.lookup("delay",
      Map("season" -> "Winter", "airline" -> "AA")).get
    assert(ans.predicates.size <= 1)
  }

  test("speeches carry at most m facts and positive utility on varied targets") {
    val ans = engine.lookup("delay", Map.empty).get
    assert(ans.facts.length <= config.speechLength)
    assert(ans.utility > 0)
  }

  test("speech text mentions the typical value of its first fact") {
    val ans = engine.lookup("delay", Map.empty).get
    assert(ans.speech.startsWith("About "))
  }

  test("winter delays are summarized higher than summer delays") {
    val winter = engine.lookup("delay", Map("season" -> "Winter")).get
    val summer = engine.lookup("delay", Map("season" -> "Summer")).get
    assert(winter.predicates == Map("season" -> "Winter"))
    assert(summer.predicates == Map("season" -> "Summer"))
    // Each speech is heard against its subset's mean (the prior), so compare
    // those: the generator adds 8 minutes in winter, the noise on each mean
    // is about ±0.5. The first selected fact may be any cell of the subset.
    def prior(season: String): Double =
      table.relationFor("delay", Seq("season" -> season)).targetMean
    assert(prior("Winter") - prior("Summer") >= 4.0)
  }

  test("utilities from the engine are reproducible by re-solving") {
    val p = Problem("cancelled", Seq("season" -> "Winter"))
    val direct = Preprocessor.solve(table, p, config.maxExtraFactDims,
      config.speechLength, "go").get
    val served = engine.exact("cancelled", Map("season" -> "Winter")).get
    assert(math.abs(direct.utility - served.utility) < 1e-9)
  }
}

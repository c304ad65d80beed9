package repro.exp

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.VoiceData
import repro.system.Encoding
import repro.vocalize.{SpeechTemplates, SummaryFact, TargetStyles}

/** Table II: the best- and worst-ranked speech among 100 random three-fact
  * speeches for ACS visual-impairment prevalence, ranked by the §II quality
  * model — the speeches the paper's AMT studies compared.
  */
object TableII {

  final case class Ranked(speech: String, utility: Double, scaled: Double)
  final case class Result(best: Ranked, median: Ranked, worst: Ranked,
                          greedy: Ranked, numCandidates: Int)

  /** Paper's Table II (for EXPERIMENTS.md diffing): the worst speech cites
    * borough-level facts (≈30–35/1000), the best cites age-group facts
    * (80 elder / 17 adult / 3 teen) — age dominates prevalence, so the
    * model must rank age-scoped facts on top. We assert the same structure.
    */
  val paperWorst = "About 30 out of 1000 persons in Manhattan identify as visually impaired. It is 35 for Brooklyn. It is 35 overall."
  val paperBest = "About 80 out of 1000 elder persons identify as visually impaired. It is 17 for adults. It is 3 for teenagers in Manhattan."

  def compute(spark: SparkSession, sf: Double, seed: Long = 7,
              numSpeeches: Int = 100, m: Int = 3): Result = {
    val spec = VoiceData.AcsNY
    val table = Encoding.fromDataFrame(spec.df(spark, sf), spec.dims, spec.targets)
    val rel = table.relationFor("visual", Nil)
    val index = FactGen.build(rel, 2)
    val prior = rel.targetMean
    val style = TargetStyles.forTarget("visual")
    val rnd = new Random(seed)

    def toSummary(f: Fact): SummaryFact = SummaryFact(f.labels(rel).toMap, f.typical, f.support)

    def rank(facts: IndexedSeq[Fact], scale: Double): Ranked = {
      val u = Eval.utility(rel, facts, prior)
      Ranked(SpeechTemplates.render(style, Map.empty, facts.map(toSummary)), u, u / scale)
    }

    val greedyRes = GreedySummarizer.summarize(index, m, prior)
    val scale = math.max(greedyRes.speech.utility, 1e-12)

    val randomSpeeches = (1 to numSpeeches).map { _ =>
      val ids = rnd.shuffle(index.facts.indices.toList).take(m)
      rank(ids.map(index.facts).toIndexedSeq, scale)
    }.sortBy(-_.utility)

    Result(
      best = randomSpeeches.head,
      median = randomSpeeches(randomSpeeches.length / 2),
      worst = randomSpeeches.last,
      greedy = rank(greedyRes.speech.facts, scale),
      numCandidates = index.numFacts)
  }

  def render(r: Result): String =
    Seq(
      f"Candidate facts: ${r.numCandidates}%d",
      f"Best   (scaled ${r.best.scaled}%.3f): ${r.best.speech}",
      f"Median (scaled ${r.median.scaled}%.3f): ${r.median.speech}",
      f"Worst  (scaled ${r.worst.scaled}%.3f): ${r.worst.speech}",
      f"Greedy (scaled ${r.greedy.scaled}%.3f): ${r.greedy.speech}",
      s"Paper best : $paperBest",
      s"Paper worst: $paperWorst").mkString("\n")
}

package repro.exp

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.VoiceData
import repro.system._

/** Fig. 3 (supplementary to the tables): computation time and speech quality
  * of the exact algorithm E vs. the greedy variants G-B / G-P / G-O over the
  * paper's eight scenario-targets (F-C, F-D, A-H, A-V, A-C, S-C, S-O, S-S).
  *
  * Times for the greedy variants cover the full pre-processing problem set
  * (every query with ≤ 2 predicates). The exact algorithm runs on a seeded
  * sample of problems under a per-problem deadline, like the paper's 48 h
  * per-scenario timeout; quality is greedy utility scaled by the exact
  * optimum on that sample.
  */
object Fig3 {

  /** @param exactSec      bounded exact (Alg. 1 seeded with the greedy lower
    *                      bound) over the problem sample
    * @param exactNbSec    exact WITHOUT a lower bound on the hardest (empty
    *                      query) problem — the Theorem 5 reference point;
    *                      this is the configuration whose cost explodes the
    *                      way the paper's measured exact runs do
    */
  final case class ScenarioResult(
      label: String,
      numProblems: Int,
      factsFullSubset: Int,
      gbSec: Double, gpSec: Double, goSec: Double,
      exactSampleN: Int, exactSec: Double, exactTimeouts: Int,
      exactNbSec: Double, exactNbTimedOut: Boolean,
      greedySampleSec: Double,
      greedyAvgScaled: Double, greedyMinScaled: Double)

  final case class Scenario(label: String, spec: VoiceData.DatasetSpec,
                            target: String, sf: Double)

  def scenarios(flightsSf: Double = 0.01, acsSf: Double = 0.1,
                soSf: Double = 0.05): Seq[Scenario] = Seq(
    Scenario("F-C", VoiceData.Flights, "cancelled", flightsSf),
    Scenario("F-D", VoiceData.Flights, "delay", flightsSf),
    Scenario("A-H", VoiceData.AcsNY, "hearing", acsSf),
    Scenario("A-V", VoiceData.AcsNY, "visual", acsSf),
    Scenario("A-C", VoiceData.AcsNY, "cognitive", acsSf),
    Scenario("S-C", VoiceData.StackOverflow, "competence", soSf),
    Scenario("S-O", VoiceData.StackOverflow, "optimism", soSf),
    Scenario("S-S", VoiceData.StackOverflow, "job_sat", soSf))

  def run(spark: SparkSession, scens: Seq[Scenario],
          m: Int = 3, maxExtraFactDims: Int = 2,
          exactSample: Int = 12, exactDeadlineMs: Long = 15000,
          seed: Long = 13): Seq[ScenarioResult] = {
    // Encode each dataset once (per sf) and share across its targets.
    val tables = scens.map(s => (s.spec.name, s.sf)).distinct.map { case (n, sf) =>
      val spec = VoiceData.all.find(_.name == n).get
      (n, sf) -> Encoding.fromDataFrame(spec.df(spark, sf), spec.dims, spec.targets)
    }.toMap

    scens.map { sc =>
      val table = tables((sc.spec.name, sc.sf))
      val config = SummarizationConfig(sc.spec, maxQueryLen = 2,
        maxExtraFactDims = maxExtraFactDims, speechLength = m)
      val probs = ProblemGenerator.problems(table, config)
        .filter(_.target == sc.target)

      def timeAlgo(algo: String): (Double, Map[String, Double]) = {
        val start = System.nanoTime()
        val utils = probs.flatMap(p =>
          Preprocessor.solve(table, p, maxExtraFactDims, m, algo)
            .map(s => p.key -> s.utility)).toMap
        ((System.nanoTime() - start) / 1e9, utils)
      }
      val (gbSec, gbUtils) = timeAlgo("gb")
      val (gpSec, _) = timeAlgo("gp")
      val (goSec, _) = timeAlgo("go")

      // Exact runs on the HARDEST problems — the fewest-predicate queries
      // cover the largest subsets and carry the most candidate facts (this
      // is where the paper's exact runs take hours). Pad with a seeded
      // random pick of narrower problems for quality coverage.
      val rnd = new Random(seed)
      val hard = probs.sortBy(_.predicates.length).take(exactSample / 2)
      val rest = rnd.shuffle(probs.filterNot(hard.contains))
        .take(exactSample - hard.length)
      val sample = hard ++ rest

      // Greedy on the same sample, for a per-problem speed ratio.
      val gsStart = System.nanoTime()
      sample.foreach(p => Preprocessor.solve(table, p, maxExtraFactDims, m, "gb"))
      val greedySampleSec = (System.nanoTime() - gsStart) / 1e9

      val exactStart = System.nanoTime()
      var timeouts = 0
      val ratios = sample.flatMap { p =>
        val rel = table.relationFor(p.target, p.predicates)
        if (rel.numRows == 0) None
        else {
          val res = ExactSummarizer.summarizeRelation(rel,
            math.min(maxExtraFactDims, rel.numDims), m,
            Some(System.nanoTime() + exactDeadlineMs * 1000000L))
          if (res.timedOut) { timeouts += 1; None }
          else {
            val g = gbUtils.getOrElse(p.key, 0.0)
            Some(if (res.speech.utility <= 1e-12) 1.0
                 else math.min(1.0, g / res.speech.utility))
          }
        }
      }
      val exactSec = (System.nanoTime() - exactStart) / 1e9

      // Theorem-5 reference: exact on the hardest problem with NO lower
      // bound (only the canonical-order prune) — the search then visits all
      // C(k, m) speeches of length m, which is where the paper's measured
      // hours-long exact runs live; it stops at the deadline.
      val fullRel = table.relationFor(sc.target, Nil)
      val fullIndex = FactGen.build(fullRel, maxExtraFactDims)
      val nbStart = System.nanoTime()
      val nbRes = ExactSummarizer.summarize(fullIndex, m, fullRel.targetMean,
        lowerBound = None,
        deadlineNanos = Some(System.nanoTime() + exactDeadlineMs * 1000000L))
      val exactNbSec = (System.nanoTime() - nbStart) / 1e9

      val fullSubsetFacts = fullIndex.numFacts
      ScenarioResult(sc.label, probs.length, fullSubsetFacts,
        gbSec, gpSec, goSec,
        sample.length, exactSec, timeouts,
        exactNbSec, nbRes.timedOut, greedySampleSec,
        if (ratios.isEmpty) Double.NaN else ratios.sum / ratios.length,
        if (ratios.isEmpty) Double.NaN else ratios.min)
    }
  }

  def render(rs: Seq[ScenarioResult]): String = {
    val header = f"${"Scen"}%-5s ${"#prob"}%6s ${"#facts"}%7s ${"G-B s"}%8s ${"G-P s"}%8s ${"G-O s"}%8s ${"E s(n)"}%12s ${"E TO"}%5s ${"E-nb s"}%8s ${"G smpl s"}%9s ${"G/E avg"}%8s ${"G/E min"}%8s"
    val body = rs.map { r =>
      val nb = f"${r.exactNbSec}%.1f" + (if (r.exactNbTimedOut) "TO" else "")
      f"${r.label}%-5s ${r.numProblems}%6d ${r.factsFullSubset}%7d ${r.gbSec}%8.2f ${r.gpSec}%8.2f ${r.goSec}%8.2f ${f"${r.exactSec}%.1f(${r.exactSampleN})"}%12s ${r.exactTimeouts}%5d $nb%8s ${r.greedySampleSec}%9.2f ${r.greedyAvgScaled}%8.4f ${r.greedyMinScaled}%8.4f"
    }
    (header +: body).mkString("\n")
  }
}

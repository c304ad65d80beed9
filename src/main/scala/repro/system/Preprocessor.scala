package repro.system

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.vocalize.{SpeechTemplates, SummaryFact, TargetStyle, TargetStyles}

/** One pre-computed speech answer, materialized for run-time lookup. */
final case class Summary(
    target: String,
    predicates: Map[String, String],
    facts: Seq[SummaryFact],
    utility: Double,
    baseError: Double,
    speech: String) {
  def key: String = Problem.key(target, predicates)
}

final case class PreprocessStats(numProblems: Int, elapsedNanos: Long) {
  def perProblemMillis: Double =
    if (numProblems == 0) 0.0 else elapsedNanos / 1e6 / numProblems
}

/** The batch pre-processing stage (§III): solve one speech-summarization
  * problem per possible voice query and materialize the results.
  *
  * Realized as a Spark job: the (compact, dictionary-encoded) table is
  * broadcast once, the problem list is distributed, and each task solves its
  * problems with the local summarizer — thousands of small optimization
  * problems in parallel. The resulting `Dataset[Summary]` is written to
  * Parquet and later served by [[QueryEngine]].
  */
object Preprocessor {

  /** Solve a single problem against an encoded table. `algo` is one of
    * "gb" (greedy base), "gp" (naive pruning), "go" (optimized pruning) or
    * "exact" (Alg. 1 seeded with the greedy bound).
    */
  def solve(table: EncodedTable, p: Problem, maxExtraFactDims: Int,
            m: Int, algo: String,
            exactDeadlineNanos: Option[Long] = None): Option[Summary] = {
    val rel = table.relationFor(p.target, p.predicates)
    if (rel.numRows == 0) return None
    val index = FactGen.build(rel, math.min(maxExtraFactDims, rel.numDims))
    val prior = rel.targetMean
    val (facts, utility, baseError) = algo match {
      case "exact" =>
        val greedy = GreedySummarizer.summarize(index, m, prior)
        val res = ExactSummarizer.summarize(index, m, prior,
          Some(greedy.speech), exactDeadlineNanos)
        (res.speech.facts, res.speech.utility, res.baseError)
      case name =>
        val strategy = name match {
          case "gb" => ExhaustiveSelection
          case "gp" => NaivePruning()
          case "go" => OptimizedPruning()
          case other => throw new IllegalArgumentException(s"unknown algo $other")
        }
        val res = GreedySummarizer.summarize(index, m, prior, strategy)
        (res.speech.facts, res.speech.utility, res.baseError)
    }
    val summaryFacts = facts.map(f => SummaryFact(f.labels(rel).toMap, f.typical, f.support))
    val style = TargetStyles.forTarget(p.target)
    val speech = SpeechTemplates.render(style, p.predicates.toMap, summaryFacts)
    Some(Summary(p.target, p.predicates.toMap, summaryFacts, utility, baseError, speech))
  }

  /** The distributed batch job over all problems of a configuration. */
  def run(spark: SparkSession, table: EncodedTable,
          config: SummarizationConfig, algo: String = "go")
      : (Dataset[Summary], PreprocessStats) = {
    import spark.implicits._
    val start = System.nanoTime()
    val probs = ProblemGenerator.problems(table, config)
    val bcTable = spark.sparkContext.broadcast(table)
    val maxExtra = config.maxExtraFactDims
    val m = config.speechLength
    val parallelism = spark.sparkContext.defaultParallelism
    val summaries = spark.createDataset(probs)
      .repartition(parallelism)
      .mapPartitions { it =>
        val t = bcTable.value
        it.flatMap(p => solve(t, p, maxExtra, m, algo))
      }
      .cache()
    summaries.count() // materialize so the stats reflect the full batch
    (summaries, PreprocessStats(probs.length, System.nanoTime() - start))
  }
}

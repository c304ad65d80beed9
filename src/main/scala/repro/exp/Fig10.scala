package repro.exp

import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.data.VoiceData
import repro.system._
import repro.vocalize.SamplingBaseline

/** Fig. 10 (supplementary): run-time latency and per-query processing time
  * of our pre-processing approach vs. the sampling baseline, plus the
  * per-query pre-processing overhead, for Stack Overflow (S), Flights (F)
  * and Primaries (P).
  *
  * Pre-processing runs as the distributed Spark batch job
  * ([[Preprocessor.run]]); run-time cost for our system is a pure lookup in
  * the materialized summaries. The baseline pays its sampling cost per
  * query: latency is its time-to-first-sentence.
  */
object Fig10 {

  val LookupRounds = 1000

  final case class Row(
      dataset: String,
      numQueries: Int,
      preprocessSec: Double,
      preprocessPerQueryMs: Double,
      lookupLatencyMicros: Double,
      baselineLatencyMs: Double,
      baselineTotalMs: Double)

  def run(spark: SparkSession, sfs: Map[String, Double] = Map(
            "Stack Overflow" -> 0.05, "Flights" -> 0.01, "Primaries" -> 0.1),
          m: Int = 3, sampleQueries: Int = 30,
          baselineSampleSize: Int = 200, seed: Long = 19): Seq[Row] = {
    Seq(VoiceData.StackOverflow, VoiceData.Flights, VoiceData.Primaries).map { spec =>
      val sf = sfs(spec.name)
      val df = spec.df(spark, sf)
      val table = Encoding.fromDataFrame(df, spec.dims, spec.targets)
      val config = SummarizationConfig(spec, speechLength = m)
      val (summaries, stats) = Preprocessor.run(spark, table, config, "go")
      val engine = QueryEngine.fromDataset(summaries)
      summaries.unpersist()

      val rnd = new Random(seed)
      val probs = rnd.shuffle(ProblemGenerator.problems(table, config))
        .take(sampleQueries)

      // Our run-time cost: the lookup itself, timed over `LookupRounds`
      // rounds after as many warm-up rounds, so the JIT has compiled it.
      def lookups(): Unit = (1 to LookupRounds).foreach(_ =>
        probs.foreach(p => engine.lookup(p.target, p.predicates.toMap)))
      lookups()
      val lookupStart = System.nanoTime()
      lookups()
      val lookupMicros = (System.nanoTime() - lookupStart) / 1e3 / probs.length / LookupRounds

      // Baseline: sampling at query time over the queried subset.
      val baseRuns = probs.flatMap { p =>
        val rel = table.relationFor(p.target, p.predicates)
        if (rel.numRows == 0) None
        else Some(SamplingBaseline.summarize(rel, math.min(2, rel.numDims), m,
          baselineSampleSize, seed))
      }
      Row(spec.name, stats.numProblems, stats.elapsedNanos / 1e9,
        stats.perProblemMillis, lookupMicros,
        baseRuns.map(_.latencyNanos).sum / 1e6 / baseRuns.length,
        baseRuns.map(_.totalNanos).sum / 1e6 / baseRuns.length)
    }
  }

  def render(rows: Seq[Row]): String = {
    val header = f"${"Dataset"}%-15s ${"#queries"}%9s ${"preproc s"}%10s ${"ms/query"}%9s ${"lookup µs"}%10s ${"base lat ms"}%12s ${"base tot ms"}%12s"
    val body = rows.map { r =>
      f"${r.dataset}%-15s ${r.numQueries}%9d ${r.preprocessSec}%10.1f ${r.preprocessPerQueryMs}%9.2f ${r.lookupLatencyMicros}%10.2f ${r.baselineLatencyMs}%12.2f ${r.baselineTotalMs}%12.2f"
    }
    (header +: body).mkString("\n")
  }
}

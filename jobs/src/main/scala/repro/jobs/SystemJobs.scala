package repro.jobs

import repro.data.VoiceData
import repro.system._

/** Batch pre-processing job (§III): generate speeches for every query of a
  * dataset and materialize them to Parquet for run-time lookup.
  *
  * Usage: `spark-submit --class repro.jobs.PreprocessJob <dataset> <sf> <outDir>`
  * with dataset one of Flights | "ACS NY" | "Stack Overflow" | Primaries.
  */
object PreprocessJob {
  def main(args: Array[String]): Unit = {
    val datasetName = args.headOption.getOrElse("Flights")
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.01)
    val outDir = args.lift(2).getOrElse("/tmp/repro-summaries")
    val spec = VoiceData.all.find(_.name == datasetName)
      .getOrElse(sys.error(s"unknown dataset $datasetName"))
    val spark = JobSession.create(s"preprocess-$datasetName")
    val table = Encoding.fromDataFrame(spec.df(spark, sf), spec.dims, spec.targets)
    val (summaries, stats) = Preprocessor.run(spark, table,
      SummarizationConfig(spec), algo = "go")
    summaries.write.mode("overwrite").parquet(outDir)
    println(f"pre-processed ${stats.numProblems}%d queries in " +
      f"${stats.elapsedNanos / 1e9}%.1f s (${stats.perProblemMillis}%.2f ms/query) → $outDir")
    spark.stop()
  }
}

/** Run-time query answering against materialized summaries.
  *
  * Usage: `spark-submit --class repro.jobs.ServeQueryJob <summariesDir>
  * <dataset> "<voice query text>"` — e.g. "cancellations in Winter?".
  */
object ServeQueryJob {
  def main(args: Array[String]): Unit = {
    val dir = args.headOption.getOrElse("/tmp/repro-summaries")
    val datasetName = args.lift(1).getOrElse("Flights")
    val text = args.lift(2).getOrElse("cancellations in Winter?")
    val spec = VoiceData.all.find(_.name == datasetName)
      .getOrElse(sys.error(s"unknown dataset $datasetName"))
    val spark = JobSession.create("serve")
    import spark.implicits._
    val engine = QueryEngine.fromDataset(spark.read.parquet(dir).as[Summary])
    val vocab = Vocabulary.forDataset(spec)
    QueryClassifier.classify(text, vocab) match {
      case RequestType.SQuery =>
        val q = QueryClassifier.parse(text, vocab).get
        engine.resolve(q.target, q.predicates) match {
          case Resolution.Exact(s) => println(s.speech)
          case Resolution.Fallback(s, dropped) =>
            println(s"(Answered for a broader subset: $dropped predicate(s) dropped.)")
            println(s.speech)
          case Resolution.Miss => println("No summary is available for that query.")
        }
      case RequestType.Help =>
        println("Ask for an average value, optionally restricted by up to two dimensions.")
      case other => println(s"Request classified as ${other.label}; not a supported data query.")
    }
    spark.stop()
  }
}

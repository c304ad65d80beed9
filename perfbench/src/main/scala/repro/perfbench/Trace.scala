package repro.perfbench

import scala.collection.mutable
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core._
import repro.perfbench.Reference.Key
import repro.perfbench.Stats.Metric
import repro.system._
import repro.vocalize.{SpeechTemplates, SummaryFact, TargetStyles}

/** The traced run: spans around the calls into each layer's public
  * functions, plus the work counters those calls return. It runs apart
  * from the timed run, so tracing never touches an end-to-end metric.
  */
object Trace {

  /** Span time per layer, kept in memory. */
  final class Spans {
    private val nanos = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
    var count = 0L

    def apply[A](layer: String)(f: => A): A = {
      val t0 = System.nanoTime()
      try f finally { nanos(layer) += System.nanoTime() - t0; count += 1 }
    }

    def seconds(layer: String): Double = nanos(layer) / 1e9
  }

  object Spans {
    /** Seconds one span adds around its call: the median over five
      * batches of 100,000 empty spans. */
    def cost(): Double = Stats.median((1 to 5).map { _ =>
      val s = new Spans
      val n = 100000
      val (_, ns) = Stats.timed((1 to n).foreach(_ => s("calibrate")(())))
      ns / 1e9 / n
    })
  }

  /** Counts Spark jobs and finished tasks; read after draining the bus. */
  final class JobCounter extends SparkListener {
    @volatile var jobs = 0
    @volatile var tasks = 0
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs += 1
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks += 1
  }

  /** Work counters returned by the solver layers. */
  final class Counters {
    var filterCalls, rowsOut, facts, utilityPasses, boundPasses, prunedGroups, timedOut = 0L
    var enumerated = 0L
  }

  /** `Preprocessor.solve`, step by step, with a span around each layer
    * call in the order it makes them.
    */
  def solve(t: EncodedTable, p: Problem, cfg: SummarizationConfig, algo: String,
            spans: Spans, c: Counters): Option[Summary] = {
    val m = cfg.speechLength
    val rel = spans("filter")(t.relationFor(p.target, p.predicates))
    c.filterCalls += 1
    c.rowsOut += rel.numRows
    if (rel.numRows == 0) return None
    val index = spans("factgen")(FactGen.build(rel, math.min(cfg.maxExtraFactDims, rel.numDims)))
    c.facts += index.numFacts
    val prior = rel.targetMean
    def greedy(strategy: FactSelectionStrategy): GreedyResult = {
      val res = spans("greedy")(GreedySummarizer.summarize(index, m, prior, strategy))
      c.utilityPasses += res.stats.utilityPasses
      c.boundPasses += res.stats.boundPasses
      c.prunedGroups += res.stats.prunedGroups
      res
    }
    val (facts, utility, baseError) = algo match {
      case "exact" =>
        val g = greedy(ExhaustiveSelection)
        val res = spans("exact")(ExactSummarizer.summarize(index, m, prior, Some(g.speech), None))
        c.enumerated += res.enumerated
        if (res.timedOut) c.timedOut += 1
        (res.speech.facts, res.speech.utility, res.baseError)
      case name =>
        val res = greedy(name match {
          case "gb" => ExhaustiveSelection
          case "gp" => NaivePruning()
          case "go" => OptimizedPruning()
        })
        (res.speech.facts, res.speech.utility, res.baseError)
    }
    spans("templates") {
      val summaryFacts = facts.map { f =>
        SummaryFact(
          f.dims.indices.map(i =>
            rel.dimNames(f.dims(i)) -> rel.dimValues(f.dims(i))(f.values(i))).toMap,
          f.typical, f.support)
      }
      val speech = SpeechTemplates.render(TargetStyles.forTarget(p.target), p.predicates.toMap, summaryFacts)
      Some(Summary(p.target, p.predicates.toMap, summaryFacts, utility, baseError, speech))
    }
  }

  val EngineBuilds = 3
  val ExactLookupBatch = 1000
  val ExactLookupNanos = 500_000_000L

  def run(p: Pipeline, tally: Tally): Seq[Metric] = {
    val w = p.w
    val cfg = w.config
    val (_, setupTimes) = Main.setUps(p)

    // Warm up as the timed run does; its untraced passes give the
    // pre-processing time the tracing overhead is compared with.
    val (passes, passTimes) = Main.runPasses(p)
    val preprocessS = Stats.median(passTimes)
    val ref = Main.reference(p)
    val summaries = Main.checkPasses(p, ref, passes, tally)

    val sc = p.spark.sparkContext
    val jobs = new JobCounter
    sc.addSparkListener(jobs)
    def counted[A](f: => A): (A, Int, Int) = {
      ListenerBusDrain(sc)
      val (j0, t0) = (jobs.jobs, jobs.tasks)
      val a = f
      ListenerBusDrain(sc)
      (a, jobs.jobs - j0, jobs.tasks - t0)
    }

    val spans = new Spans
    val c = new Counters
    val (table, encodingJobs, _) = counted(spans("encoding")(
      Encoding.fromDataFrame(p.df, w.spec.dims, w.spec.targets)))
    val problems = spans("problemgen")(ProblemGenerator.problems(table, cfg))
    Pipeline.progress(s"${problems.length} problems; traced solve")
    val traced = spans("solve")(problems.flatMap(solve(table, _, cfg, w.algo, spans, c)))
    val ((ds, _), _, tasks) = counted(spans("batch")(Preprocessor.run(p.spark, table, cfg, w.algo)))
    val dir = p.nextDir()
    spans("parquet.write")(ds.write.parquet(dir.getPath))
    ds.unpersist()
    val engine = spans("engine.load")(p.loadEngine(dir))
    Checks.same(engine, summaries, ref, tally)
    val tracedByKey = traced.map(s => Reference.keyOf(s) -> s).toMap
    ref.expectedKeys.foreach(k => tally.record(tracedByKey.get(k) == summaries.get(k),
      s"traced summary for $k differs from the batch job's"))
    val loaded = summaries.values.toIndexedSeq
    val buildS = Stats.median((1 to EngineBuilds).map(_ =>
      Stats.seconds(Stats.timed(new QueryEngine(loaded))._2)))

    // Serving, traced.
    Pipeline.progress("traced serving")
    val serve = new Serve(engine, p.vocab, cfg.maxQueryLen)
    val expected1 = Serve.expectedReplies(ref, p.vocab, p.voiceLog)
    val log = p.voiceLog.map(_._1)
    val queries = p.longQueries
    val expected2 = queries.map(q => Option(Serve.acceptable(ref, q)))
    val warm = Serve.loop(log.length, Serve.WarmRequestRounds, 0)(i => serve.request(log(i)))
    tally.add(warm.ops, Serve.failures(warm, expected1), "voice requests")
    var classifierNs, exactHits, fallbacks, misses, squeries = 0L
    def lookedUp(k: Key, a: Option[Summary]): Unit =
      if (a.isEmpty) misses += 1
      else if (ref.subsets.contains(k.predicates)) exactHits += 1
      else fallbacks += 1
    val answers1 = log.map { text =>
      val t0 = System.nanoTime()
      val cat = QueryClassifier.classify(text, p.vocab, cfg.maxQueryLen)
      val pq = if (cat == RequestType.SQuery) QueryClassifier.parse(text, p.vocab, cfg.maxQueryLen) else None
      classifierNs += System.nanoTime() - t0
      pq.flatMap { q =>
        squeries += 1
        val a = engine.lookup(q.target, q.predicates)
        lookedUp(Key(q.target, q.predicates), a)
        a
      }.orNull
    }
    tally.add(log.length, Serve.wrong(Serve.keys(answers1), expected1), "traced voice requests")
    val answers2 = queries.map { q =>
      val a = engine.lookup(q.target, q.predicates)
      lookedUp(q, a)
      a.orNull
    }
    tally.add(queries.length, Serve.wrong(Serve.keys(answers2), expected2), "traced fallback lookups")

    // Exact hits take about a microsecond: time them in batches.
    val hits = ref.expectedKeys.toArray.sortBy(_.toString)
    var calls = 0L
    var found = 0L
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < ExactLookupNanos) {
      var i = 0
      while (i < ExactLookupBatch) {
        val k = hits((calls % hits.length).toInt)
        if (engine.lookup(k.target, k.predicates).isDefined) found += 1
        calls += 1; i += 1
      }
    }
    val exactUs = (System.nanoTime() - t0) / 1e3 / calls
    tally.add(1, if (found == calls) 0 else 1, "exact lookups of materialized keys")

    val solveCpu = spans.seconds("solve")
    val overhead = spans.count * Spans.cost()
    val (sessionS, generateS) = (Stats.median(setupTimes.map(_._1)), Stats.median(setupTimes.map(_._2)))
    Seq(
      Metric("spark.session_s", sessionS, "s"),
      Metric("data.generate_s", generateS, "s"),
      Metric("encoding.time_s", spans.seconds("encoding"), "s"),
      Metric("encoding.spark_jobs", encodingJobs, "count"),
      Metric("problemgen.time_s", spans.seconds("problemgen"), "s"),
      Metric("problemgen.problems", problems.length, "count"),
      Metric("filter.time_s", spans.seconds("filter"), "s"),
      Metric("filter.calls", c.filterCalls, "count"),
      Metric("filter.rows_out", c.rowsOut, "count"),
      Metric("factgen.time_s", spans.seconds("factgen"), "s"),
      Metric("factgen.facts", c.facts, "count"),
      Metric("greedy.time_s", spans.seconds("greedy"), "s"),
      Metric("greedy.utility_passes", c.utilityPasses, "count"),
      Metric("greedy.bound_passes", c.boundPasses, "count"),
      Metric("greedy.pruned_groups", c.prunedGroups, "count"),
      Metric("exact.time_s", spans.seconds("exact"), "s"),
      Metric("exact.enumerated", c.enumerated, "count"),
      Metric("exact.timed_out", c.timedOut, "count"),
      Metric("templates.time_s", spans.seconds("templates"), "s"),
      Metric("batch.run_s", spans.seconds("batch"), "s"),
      Metric("batch.solve_cpu_s", solveCpu, "s"),
      Metric("spark.overhead_s", spans.seconds("batch") - solveCpu / Env.threads, "s"),
      Metric("spark.tasks", tasks, "count"),
      Metric("parquet.write_s", spans.seconds("parquet.write"), "s"),
      Metric("parquet.bytes", Pipeline.treeBytes(dir), "bytes"),
      Metric("engine.load_s", spans.seconds("engine.load"), "s"),
      Metric("engine.build_s", buildS, "s"),
      Metric("classifier.time_us", classifierNs / 1e3 / log.length, "us"),
      Metric("classifier.squery_requests", squeries, "count"),
      Metric("engine.exact_us", exactUs, "us"),
      Metric("engine.exact_hits", exactHits, "count"),
      Metric("engine.fallbacks", fallbacks, "count"),
      Metric("engine.misses", misses, "count"),
      Metric("trace.preprocess_s", preprocessS, "s"),
      Metric("trace.spans", spans.count, "count"),
      Metric("trace.overhead_s", overhead, "s"),
      Metric("trace.overhead_pct", 100 * overhead / preprocessS, "%"))
  }

}

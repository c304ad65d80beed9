package repro.perfbench

import scala.collection.mutable
import repro.perfbench.Stats.Metric
import repro.system.Summary

/** The pipeline benchmark.
  *
  * {{{
  * Main --workload <flights-batch|so-exact> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Prints one line describing the environment, then as its last line a
  * JSON object with `correct`, `attempted`, `failed` and `metrics`: the
  * end-to-end metrics with `--trace 0`, the per-layer metrics with
  * `--trace 1` (the traced run does a fixed amount of work and ignores
  * `--seconds`). See perfbench/README.md.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  val DefaultSeed = 1L

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace")
    require(kv.keySet.subsetOf(known), s"unknown options: ${(kv.keySet -- known).mkString(", ")}")
    val name = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    val w = Workload.all.find(_.name == name)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload $name"))
    val seconds = kv.get("seconds").map(_.toInt).getOrElse(10)
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = kv.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Args(w, kv.get("seed").map(_.toLong).getOrElse(DefaultSeed), seconds, trace)
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val args = parse(argv)
        println(Stats.objectJson(("workload" -> args.workload.name) +: ("trace" -> args.trace) +:
          Env.describe(args.seed)))
        val tally = new Tally
        val p = new Pipeline(args.workload, args.seed)
        val metrics =
          try { if (args.trace) Trace.run(p, tally) else timed(p, args.seconds, tally) }
          finally p.stop()
        println(Stats.resultJson(tally.failed == 0, tally.attempted, tally.failed, metrics))
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    System.exit(code)
  }

  /** Set-up, repeated, each time with a fresh Spark session and table.
    * Returns the median set-up seconds and each set-up's (session, data)
    * seconds.
    */
  def setUps(p: Pipeline): (Double, Seq[(Double, Double)]) = {
    val runs = (1 to Pipeline.SetUps).map { _ =>
      val t0 = System.nanoTime()
      val times = p.setUp()
      val total = Stats.seconds(System.nanoTime() - t0)
      Pipeline.progress(f"set-up $total%.3f s (session ${times._1}%.3f s, data ${times._2}%.3f s)")
      (total, times)
    }
    (Stats.median(runs.map(_._1)), runs.map(_._2))
  }

  val TimedPasses = 3

  /** Pre-processing passes: a small one to warm up (the first pass of a
    * JVM is far slower), then `TimedPasses` timed full ones, each followed
    * by `after(pass)`. Returns the full passes and their seconds.
    */
  def runPasses(p: Pipeline, after: Pipeline.Pass => Unit = _ => ()): (Seq[Pipeline.Pass], Seq[Double]) = {
    Pipeline.progress(f"small pass ${p.smallPass()}%.3f s")
    val timed = (1 to TimedPasses).map { _ =>
      val x = p.pass()
      Pipeline.progress(f"timed pass ${x.nanos / 1e9}%.3f s")
      after(x)
      x
    }
    (timed, timed.map(x => Stats.seconds(x.nanos)))
  }

  def reference(p: Pipeline): Reference = {
    val c = p.w.config
    Reference.collect(p.df, p.w.spec.dims, p.w.spec.targets, c.maxQueryLen, c.maxExtraFactDims, c.speechLength)
  }

  /** Checks every pass: the first in full against the reference and for
    * the method's properties, the others for the same summaries. Returns
    * the summaries by key.
    */
  def checkPasses(p: Pipeline, ref: Reference, passes: Seq[Pipeline.Pass],
                  tally: Tally): Map[Reference.Key, Summary] = {
    Pipeline.progress("checking summaries")
    val summaries = Checks.full(passes.head.engine, ref, tally)
    Checks.properties(p.w, ref, passes.head, summaries, p.seed, tally)
    passes.tail.foreach(x => Checks.same(x.engine, summaries, ref, tally))
    summaries
  }

  /** The timed run: end-to-end metrics with tracing off. A JVM of its
    * own serves the first timed pass's summaries to one client in a closed
    * loop, in a slice after each pass, for `seconds` in all. The outputs
    * are checked after all measurements.
    */
  def timed(p: Pipeline, seconds: Int, tally: Tally): Seq[Metric] = {
    val w = p.w
    val (setupS, _) = setUps(p)
    val log = p.voiceLog
    val queries = p.longQueries
    var loaded: Array[Summary] = null
    var server: ServeProcess.Server = null
    val (passes, passTimes, streams) =
      try {
        val (passes, passTimes) = runPasses(p, { x =>
          if (server == null) {
            loaded = p.loadSummaries(x.dir)
            Pipeline.progress("serving: warm-up")
            server = ServeProcess.start(ServeProcess.Job(w.name, loaded, log.map(_._1), queries), Env.workDir)
          }
          server.slice(seconds * 1000000000L / TimedPasses)
          Pipeline.progress("served a slice")
        })
        (passes, passTimes, server.finish())
      } finally if (server != null) server.stop()
    streams.foreach(s => Pipeline.progress("stream " + s.describe))
    val Seq(_, req, _, fb) = streams
    val engineMb = engineHeapMb(p, passes.last.dir)

    val ref = reference(p)
    val summaries = checkPasses(p, ref, passes, tally)
    tally.record(loaded.length == ref.numProblems && loaded.forall(s => summaries.get(Reference.keyOf(s)).contains(s)),
      "summaries served differ from the checked ones")
    val expected1 = Serve.expectedReplies(ref, p.vocab, log)
    val expected2 = queries.map(q => Option(Serve.acceptable(ref, q)))
    streams.zip(Seq(expected1, expected1, expected2, expected2)).foreach { case (s, e) =>
      tally.add(s.ops, Serve.failures(s, e), "serving")
    }
    Pipeline.progress("done")

    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("preprocess_s", Stats.median(passTimes), "s"),
      Metric("speech_utility", Checks.speechUtility(summaries.values), "ratio"),
      Metric("request_p50_us", req.p50Us, "us"),
      Metric("request_p99_us", req.p99Us, "us"),
      Metric("requests_per_s", req.perSecond, "1/s"),
      Metric("fallback_p50_us", fb.p50Us, "us"),
      Metric("fallback_p99_us", fb.p99Us, "us"),
      Metric("engine_mb", engineMb, "MB"))
  }

  val EngineCopies = 2

  /** Heap retained by a loaded engine: the heap released, after full
    * collections, when `EngineCopies` engines loaded from the same Parquet
    * output are dropped, per engine. Median of three.
    */
  def engineHeapMb(p: Pipeline, dir: java.io.File): Double = Stats.median((1 to 3).map { _ =>
    var engines = (1 to EngineCopies).map(_ => p.loadEngine(dir))
    val held = Pipeline.usedHeap()
    require(engines.map(_.size).distinct.length == 1)
    engines = null
    val released = Pipeline.usedHeap()
    (held - released).toDouble / EngineCopies / 1e6
  })
}

package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.VoiceData
import repro.data.VoiceData.DatasetSpec
import repro.exp.TableIII
import repro.perfbench.Reference.Key
import repro.system._

/** One benchmark workload: a dataset at a scale factor, the pre-processing
  * algorithm, and the deployment whose request mix stream 1 replays.
  */
final case class Workload(
    name: String,
    spec: DatasetSpec,
    sf: Double,
    algo: String,
    deployment: String) {
  val config: SummarizationConfig = SummarizationConfig(spec)
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("flights-batch", VoiceData.Flights, 0.01, "go", "Flights"),
    Workload("so-exact", VoiceData.StackOverflow, 0.05, "exact", "Developers"))
}

/** The pinned execution environment: Spark `local[threads]` with a fixed
  * partition count, so the generated rows and the batch job's task split
  * are the same on every machine with at least `MaxThreads` cores.
  */
object Env {
  val MaxThreads = 4
  val Partitions = 16

  def threads: Int = math.min(MaxThreads, Runtime.getRuntime.availableProcessors())

  /** Scratch space inside the run's working tree. */
  def workDir: File = new File(System.getProperty("java.io.tmpdir"))

  def start(): SparkSession = SparkSession.builder
    .master(s"local[$threads]")
    .appName("perfbench")
    .config("spark.default.parallelism", Partitions.toLong)
    .config("spark.sql.shuffle.partitions", Partitions.toLong)
    .config("spark.ui.enabled", false)
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
    .getOrCreate()

  def describe(seed: Long): Seq[(String, Any)] = Seq(
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
    "heap_max_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
    "spark_threads" -> threads,
    "partitions" -> Partitions,
    "seed" -> seed)
}

/** The steps of one run that both the timed and the traced mode share. */
final class Pipeline(val w: Workload, val seed: Long) {
  import Pipeline._

  var spark: SparkSession = _
  var df: DataFrame = _
  private var passNo = 0

  /** Start Spark and generate the workload's table, cached and
    * materialized once. Returns (session seconds, generation seconds).
    */
  def setUp(): (Double, Double) = {
    if (spark != null) { spark.stop(); SparkSession.clearActiveSession(); SparkSession.clearDefaultSession() }
    val (s, tSession) = Stats.timed(Env.start())
    spark = s
    val (d, tGen) = Stats.timed {
      val d = w.spec.df(spark, w.sf, seed).cache()
      d.count()
      d
    }
    df = d
    (Stats.seconds(tSession), Stats.seconds(tGen))
  }

  /** One full pre-processing pass: encoding → batch job → Parquet →
    * read back into a `QueryEngine`.
    */
  def pass(data: DataFrame = df): Pass = {
    val t0 = System.nanoTime()
    val table = Encoding.fromDataFrame(data, w.spec.dims, w.spec.targets)
    val (ds, _) = Preprocessor.run(spark, table, w.config, w.algo)
    val dir = nextDir()
    ds.write.parquet(dir.getPath)
    ds.unpersist()
    val engine = loadEngine(dir)
    Pass(table, engine, dir, System.nanoTime() - t0)
  }

  def loadEngine(dir: File): QueryEngine = {
    val session = spark
    import session.implicits._
    QueryEngine.fromDataset(spark.read.parquet(dir.getPath).as[Summary])
  }

  /** The summaries `loadEngine` would hold. */
  def loadSummaries(dir: File): Array[Summary] = {
    val session = spark
    import session.implicits._
    spark.read.parquet(dir.getPath).as[Summary].collect()
  }

  /** A fresh output directory; the previous pass's output, already read
    * back, is deleted. */
  def nextDir(): File = {
    deleteTree(new File(Env.workDir, s"summaries-$passNo"))
    passNo += 1
    val dir = new File(Env.workDir, s"summaries-$passNo")
    deleteTree(dir)
    dir
  }

  /** A pass over the same generator at a tenth of the scale: it compiles
    * the same code paths as a full pass at a fraction of its cost.
    */
  def smallPass(): Double = {
    val small = w.spec.df(spark, w.sf / 10, seed).cache()
    val x = pass(small)
    small.unpersist()
    Stats.seconds(x.nanos)
  }

  lazy val vocab: Vocabulary = Vocabulary.forDataset(w.spec)

  /** Stream 1's labeled voice log: the deployment's Table III mix, ×20. */
  lazy val voiceLog: Array[(String, RequestType)] =
    Serve.voiceLog(vocab, TableIII.paper(w.deployment), 20, seed + 1)

  /** Stream 2: seeded queries of maxQueryLen + 1 predicates on distinct
    * dims, each value drawn from the vocabulary the voice requests use. */
  lazy val longQueries: Array[Key] = {
    val rnd = new scala.util.Random(seed + 2)
    val dims = vocab.dimValues.toSeq.sortBy(_._1)
    Array.fill(LongQueries) {
      val preds = rnd.shuffle(dims).take(w.config.maxQueryLen + 1)
        .map { case (d, vs) => d -> vs(rnd.nextInt(vs.length)) }.toMap
      Key(w.spec.targets(rnd.nextInt(w.spec.targets.length)), preds)
    }
  }

  def stop(): Unit = if (spark != null) spark.stop()
}

object Pipeline {
  val SetUps = 3
  val LongQueries = 1000

  final case class Pass(table: EncodedTable, engine: QueryEngine, dir: File, nanos: Long)

  private val born = System.nanoTime()

  /** Progress on standard error, with seconds since start. */
  def progress(msg: String): Unit =
    Console.err.println(f"[perfbench] ${(System.nanoTime() - born) / 1e9}%7.2f s  $msg")

  def deleteTree(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete()
  }

  def treeBytes(f: File): Long =
    if (f.isDirectory) Option(f.listFiles()).map(_.map(treeBytes).sum).getOrElse(0L)
    else f.length()

  /** Heap in use after full collections. */
  def usedHeap(): Long = {
    System.gc()
    val rt = Runtime.getRuntime
    rt.totalMemory() - rt.freeMemory()
  }
}

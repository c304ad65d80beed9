package repro.perfbench

import java.io._
import java.lang.management.ManagementFactory
import java.util.concurrent.TimeUnit
import scala.jdk.CollectionConverters._
import repro.perfbench.Reference.Key
import repro.system.{QueryEngine, Summary, Vocabulary}

/** The timed serving measurement runs in a JVM of its own. There the JIT
  * compiles the serving code from the serving code's own profile, and the
  * engine's objects sit together in the heap. In the batch JVM, both depend
  * on what Spark and the solvers ran before, and request latencies moved by
  * up to 30 % from run to run.
  *
  * The serving JVM starts after the first timed pass and warms up. It then
  * serves in slices between the passes, so its measurement spans the host's
  * speed drift over most of the run, not over one stretch of it. Only one
  * of the two JVMs works at a time: the other waits on a pipe.
  */
object ServeProcess {

  final case class Job(workload: String, summaries: Array[Summary], log: Array[String], queries: Array[Key])

  /** A smaller heap, and compilation in the foreground: the thread that
    * reaches a compile threshold waits for the compiled code, so the JIT
    * compiles each method from the same profile in every run. With
    * background compilation, the lookups of stream 2 settled at a level
    * that differed by up to 40 % from one JVM to the next.
    */
  val Flags = Seq("-Xms1g", "-Xmx1g", "-Xmn512m", "-Xbatch")
  val TimeoutSeconds = 30L

  /** The batch JVM's handle on a serving JVM. */
  final class Server(child: Process, result: File) {
    private val toChild = new PrintWriter(new OutputStreamWriter(child.getOutputStream), true)
    private val fromChild = new BufferedReader(new InputStreamReader(child.getInputStream))

    private[ServeProcess] def await(): Unit = {
      val line = fromChild.readLine()
      if (line != Done) throw new IllegalStateException(s"serving process answered $line")
    }

    /** Serve both streams for `nanos` and wait until that is done. */
    def slice(nanos: Long): Unit = {
      toChild.println(nanos)
      await()
    }

    /** End the serving JVM; returns its four streams (see `Serve.Session`). */
    def finish(): Seq[Serve.Stream] = {
      toChild.close()
      await()
      if (!child.waitFor(TimeoutSeconds, TimeUnit.SECONDS))
        throw new IllegalStateException(s"serving process did not end within $TimeoutSeconds s")
      require(child.exitValue() == 0, s"serving process exited with ${child.exitValue()}")
      read[Seq[Serve.Stream]](result)
    }

    def stop(): Unit = if (child.isAlive) child.destroyForcibly().waitFor()
  }

  private val Done = "done"

  /** Start a serving JVM for `job` with this JVM's flags and class path
    * and its own `Flags`, and wait until it has warmed up.
    */
  def start(job: Job, dir: File): Server = {
    val in = new File(dir, "serve-job.bin")
    val out = new File(dir, "serve-result.bin")
    write(in, job)
    val flags = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filterNot(f => f.startsWith("-Xms") || f.startsWith("-Xmx") || f.startsWith("-Xmn"))
    val javaBin = new File(new File(System.getProperty("java.home"), "bin"), "java").getPath
    val cmd = (javaBin +: flags.toSeq) ++ Flags ++
      Seq("-cp", System.getProperty("java.class.path"), "repro.perfbench.ServeProcess", in.getPath, out.getPath)
    val child = new ProcessBuilder(cmd: _*).redirectError(ProcessBuilder.Redirect.INHERIT).start()
    val server = new Server(child, out)
    try server.await()
    catch { case e: Throwable => server.stop(); throw e }
    server
  }

  /** Reads slice lengths in nanoseconds from standard input, one a line,
    * and answers each with "done" when served; at the end of the input,
    * writes the streams and answers once more.
    */
  def main(args: Array[String]): Unit = {
    val job = read[Job](new File(args(0)))
    val w = Workload.all.find(_.name == job.workload).get
    val engine = new QueryEngine(job.summaries.toIndexedSeq)
    val serve = new Serve(engine, Vocabulary.forDataset(w.spec), w.config.maxQueryLen)
    val session = new Serve.Session(serve, job.log, job.queries)
    def answer(): Unit = { System.out.println(Done); System.out.flush() }
    answer()
    val in = new BufferedReader(new InputStreamReader(System.in))
    Iterator.continually(in.readLine()).takeWhile(_ != null).foreach { line =>
      session.slice(line.trim.toLong)
      answer()
    }
    write(new File(args(1)), session.streams)
    answer()
  }

  private def write(f: File, x: AnyRef): Unit = {
    val o = new ObjectOutputStream(new BufferedOutputStream(new FileOutputStream(f)))
    try o.writeObject(x) finally o.close()
  }

  private def read[A](f: File): A = {
    val i = new ObjectInputStream(new BufferedInputStream(new FileInputStream(f)))
    try i.readObject().asInstanceOf[A] finally i.close()
  }
}

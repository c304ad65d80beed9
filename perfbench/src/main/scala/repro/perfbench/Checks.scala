package repro.perfbench

import scala.util.Random
import repro.perfbench.Reference.Key
import repro.system.{Preprocessor, Problem, QueryEngine, Summary}

/** Counts the operations a run checked and those that failed. The first
  * few failures are reported on standard error.
  */
final class Tally {
  var attempted = 0L
  var failed = 0L

  def record(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failed <= 5) Console.err.println(s"[perfbench] check failed: $what")
    }
  }

  def add(ops: Int, failures: Int, what: => String): Unit = {
    attempted += ops
    failed += failures
    if (failures > 0) Console.err.println(s"[perfbench] $failures of $ops failed: $what")
  }
}

/** Output checks of the batch side. Every problem counts as one
  * operation per pass; it fails when its summary is missing or fails a
  * check.
  */
object Checks {

  private val Greedy = 1.0 - 1.0 / math.E

  /** Every expected problem answered by an exact lookup with a summary
    * that passes the reference recomputation, and no other summary.
    * Returns the summaries by key.
    */
  def full(engine: QueryEngine, ref: Reference, tally: Tally): Map[Key, Summary] = {
    tally.record(engine.size == ref.numProblems,
      s"engine holds ${engine.size} summaries, expected ${ref.numProblems}")
    ref.expectedKeys.iterator.flatMap { k =>
      val s = engine.exact(k.target, k.predicates)
      val err = s match {
        case None => Some(s"missing summary for $k")
        case Some(x) => ref.check(x)
      }
      tally.record(err.isEmpty, err.getOrElse(""))
      s.map(k -> _)
    }.toMap
  }

  /** A later pass: the same summaries as the fully checked one. */
  def same(engine: QueryEngine, first: Map[Key, Summary], ref: Reference, tally: Tally): Unit = {
    tally.record(engine.size == ref.numProblems,
      s"engine holds ${engine.size} summaries, expected ${ref.numProblems}")
    ref.expectedKeys.foreach { k =>
      val s = engine.exact(k.target, k.predicates)
      tally.record(s.isDefined && first.get(k) == s, s"summary for $k differs between passes")
    }
  }

  /** Properties the method must have, on seeded samples:
    *  - on problems small enough for exhaustive search, nothing beats the
    *    optimum, G-B reaches (1 − 1/e) of it (Thm 3), and the workload's
    *    summary reaches the optimum (exact) or (1 − 1/e) of it (greedy);
    *  - exact ≥ G-B on the same problem.
    */
  def properties(w: Workload, ref: Reference, pass: Pipeline.Pass,
                 summaries: Map[Key, Summary], seed: Long, tally: Tally): Unit = {
    val cfg = w.config
    def gb(k: Key): Double = Preprocessor.solve(pass.table, Problem(k.target, k.predicates.toSeq),
      cfg.maxExtraFactDims, cfg.speechLength, "gb").map(_.utility).getOrElse(0.0)
    def tol(s: Summary): Double = 1e-7 * (1.0 + s.baseError)
    val small = ref.smallProblems(seed + 3, SmallProblems, ExhaustiveBudget, 400)
    Pipeline.progress(s"exhaustive optimum on ${small.length} small problems")
    tally.record(small.length == SmallProblems,
      s"only ${small.length} of $SmallProblems problems small enough for exhaustive search")
    small.foreach { case (k, opt) =>
      summaries.get(k).foreach { s =>
        val g = gb(k)
        val okSummary =
          if (w.algo == "exact") math.abs(s.utility - opt) <= tol(s)
          else s.utility >= Greedy * opt - tol(s) && s.utility <= opt + tol(s)
        tally.record(okSummary, s"$k: U ${s.utility} vs optimum $opt (${w.algo})")
        tally.record(g >= Greedy * opt - tol(s) && g <= opt + tol(s), s"$k: G-B $g vs optimum $opt")
      }
    }
    if (w.algo == "exact") {
      val sample = new Random(seed + 4).shuffle(ref.expectedKeys.toSeq.sortBy(_.toString)).take(ExactVsGreedy)
      sample.foreach { k =>
        summaries.get(k).foreach { s =>
          val g = gb(k)
          tally.record(s.utility >= g - tol(s), s"$k: exact ${s.utility} < G-B $g")
        }
      }
    }
  }

  val SmallProblems = 4
  val ExhaustiveBudget = 1.5e8
  val ExactVsGreedy = 100

  /** Mean of U(F)/D(∅) over summaries with D(∅) > 0. */
  def speechUtility(summaries: Iterable[Summary]): Double = {
    val ratios = summaries.filter(_.baseError > 0).map(s => s.utility / s.baseError)
    ratios.sum / ratios.size
  }
}

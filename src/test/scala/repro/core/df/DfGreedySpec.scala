package repro.core.df

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestUtil}
import repro.core.{EncodedRelation, FactGen, GreedyResult, GreedySummarizer, OptimizedPruning}
import Relational._

/** Greedy (Alg. 2) against utilities and gains recomputed by the match join
  * on DuckDB.
  */
class DfGreedySpec extends AnyFunSuite {

  private val m = 3

  private def grid = TestUtil.paperGrid

  /** Checks that each fact greedy picked has the largest SQL gain over the
    * facts picked before it.
    */
  private def checkPicks(rel: EncodedRelation, res: GreedyResult): Unit = {
    val facts = res.speech.facts
    val isPick = rel.dimNames.map(d => s"g.f_$d IS NOT DISTINCT FROM p.f_$d").mkString(" AND ")
    facts.indices.foreach { k =>
      withClue(s"step $k: ") {
        Oracle.assertEquivalent(Seq(Seq(1)),
          s"""WITH g AS (${gainsSql(rel.dimNames, meanPrior)})
             |SELECT count(*) FROM g CROSS JOIN pick p
             |WHERE $isPick AND g.gain >= (SELECT max(gain) FROM g) - 1e-9""".stripMargin,
          Oracle.relation("rel", rel), speech(rel, facts.take(k)),
          speech(rel, Seq(facts(k)), "pick"))
      }
    }
  }

  test("grid with zero prior reaches utility 42.5 at m=2") {
    val res = GreedySummarizer.summarize(FactGen.build(grid, maxFactDims), 2, 0.0)
    assert(math.abs(res.speech.utility - 42.5) < 1e-9)
    Oracle.assertEquivalent(Seq(Seq(50.0, 42.5)), errorsSql(grid.dimNames, "0.0"),
      Oracle.relation("rel", grid), speech(grid, res.speech.facts))
  }

  test("grid base error is 50 under zero prior") {
    val res = GreedySummarizer.summarize(FactGen.build(grid, maxFactDims), 1, 0.0)
    assert(res.baseError == 50.0)
    Oracle.assertEquivalent(Seq(Seq(res.baseError)), "SELECT sum(abs(t - 0.0)) FROM rel",
      Oracle.relation("rel", grid))
  }

  test("first pick on the grid is the overall fact (gain 35)") {
    val res = GreedySummarizer.summarize(FactGen.build(grid, maxFactDims), 1, 0.0)
    assert(res.speech.facts.head.dims.isEmpty)
    assert(math.abs(res.gains.head - 35.0) < 1e-9)
    // The overall fact is the only one of maximal single-fact utility.
    Oracle.assertEquivalent(Seq(scopeCells(grid, res.speech.facts.head) :+ 35.0),
      s"""WITH g AS (${gainsSql(grid.dimNames, "0.0")})
         |SELECT * FROM g WHERE gain >= (SELECT max(gain) FROM g) - 1e-9""".stripMargin,
      Oracle.relation("rel", grid), speech(grid, Nil))
  }

  test("matches local greedy utility on random relations (continuous targets)") {
    relations.foreach { case (name, rel) =>
      val index = FactGen.build(rel, maxFactDims)
      Seq("G-B" -> GreedySummarizer.summarize(index, m, rel.targetMean),
          "G-O" -> GreedySummarizer.summarize(index, m, rel.targetMean, OptimizedPruning()))
        .foreach { case (alg, res) =>
          withClue(s"$name $alg: ") {
            Oracle.assertEquivalent(Seq(Seq(res.baseError, res.speech.utility)),
              errorsSql(rel.dimNames, meanPrior),
              Oracle.relation("rel", rel), speech(rel, res.speech.facts))
          }
        }
    }
  }

  test("selected scopes match local greedy on continuous targets") {
    continuous.foreach { case (name, rel) =>
      withClue(s"$name: ") {
        checkPicks(rel,
          GreedySummarizer.summarize(FactGen.build(rel, maxFactDims), m, rel.targetMean))
      }
    }
  }

  test("default prior is the relation mean") {
    val default = GreedySummarizer.summarizeRelation(grid, maxFactDims, 2)
    val explicit = GreedySummarizer.summarize(FactGen.build(grid, maxFactDims), 2, 12.5)
    assert(math.abs(explicit.speech.utility - default.speech.utility) < 1e-9)
    Oracle.assertEquivalent(Seq(Seq(12.5)), s"SELECT $meanPrior", Oracle.relation("rel", grid))
  }

  test("stops early on constant data") {
    val flat = TestUtil.grid(Map(
      ("A", "N") -> Seq(5.0), ("A", "S") -> Seq(5.0),
      ("B", "N") -> Seq(5.0), ("B", "S") -> Seq(5.0)))
    val res = GreedySummarizer.summarizeRelation(flat, maxFactDims, m)
    assert(res.speech.facts.isEmpty && res.speech.utility == 0.0)
    // No fact has a positive gain, so greedy has nothing to add.
    Oracle.assertEquivalent(Seq(Seq(0.0)),
      s"SELECT max(gain) FROM (${gainsSql(flat.dimNames, meanPrior)})",
      Oracle.relation("rel", flat), speech(flat, Nil))
  }

  test("per-fact gains are non-increasing") {
    relations.foreach { case (name, rel) =>
      val res = GreedySummarizer.summarize(FactGen.build(rel, maxFactDims), m, rel.targetMean)
      withClue(s"$name: ") {
        // The k-th gain is the largest SQL gain over the first k facts.
        res.gains.indices.foreach { k =>
          Oracle.assertEquivalent(Seq(Seq(res.gains(k))),
            s"SELECT max(gain) FROM (${gainsSql(rel.dimNames, meanPrior)})",
            Oracle.relation("rel", rel), speech(rel, res.speech.facts.take(k)))
        }
        res.gains.sliding(2).foreach {
          case Seq(a, b) => assert(a >= b - 1e-9)
          case _ =>
        }
      }
    }
  }
}

package repro.core.df

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestUtil}
import repro.core.{EncodedRelation, ExactSummarizer, FactGen, GreedySummarizer}
import Relational._

/** The exact algorithm (Alg. 1) against the optimum found on DuckDB by
  * joining the fact table with itself once per speech fact.
  */
class DfExactSpec extends AnyFunSuite {

  private val m = 3

  private def grid = TestUtil.paperGrid

  private def exact(rel: EncodedRelation, m: Int, prior: Double): ExactSummarizer.Result = {
    val index = FactGen.build(rel, maxFactDims)
    ExactSummarizer.summarize(index, m, prior,
      Some(GreedySummarizer.summarize(index, m, prior).speech))
  }

  test("grid optimum 42.5 at m=2 with zero prior") {
    val res = exact(grid, 2, 0.0)
    assert(math.abs(res.speech.utility - 42.5) < 1e-9)
    assert(res.speech.facts.length == 2)
    Oracle.assertEquivalent(Seq(Seq(42.5)), bestSql(grid.dimNames, 2, "0.0"),
      Oracle.relation("rel", grid))
  }

  test("matches local exact on random relations") {
    relations.foreach { case (name, rel) =>
      val index = FactGen.build(rel, maxFactDims)
      val greedy = GreedySummarizer.summarize(index, m, rel.targetMean).speech
      Seq("no bound" -> None, "greedy bound" -> Some(greedy)).foreach { case (bound, lb) =>
        val res = ExactSummarizer.summarize(index, m, rel.targetMean, lb)
        withClue(s"$name, $bound: ") {
          Oracle.assertEquivalent(Seq(Seq(res.speech.utility)),
            bestSql(rel.dimNames, m, meanPrior), Oracle.relation("rel", rel))
          Oracle.assertEquivalent(Seq(Seq(res.baseError, res.speech.utility)),
            errorsSql(rel.dimNames, meanPrior),
            Oracle.relation("rel", rel), speech(rel, res.speech.facts))
        }
      }
    }
  }

  test("exact utility is at least DataFrame-greedy utility") {
    relations.foreach { case (name, rel) =>
      val index = FactGen.build(rel, maxFactDims)
      val greedy = GreedySummarizer.summarize(index, m, rel.targetMean)
      val e = ExactSummarizer.summarize(index, m, rel.targetMean)
      withClue(s"$name: ") {
        assert(e.speech.utility >= greedy.speech.utility - 1e-9)
        Oracle.assertEquivalent(Seq(Seq(true)),
          s"SELECT ${e.speech.utility} >= u - 1e-9 FROM (${errorsSql(rel.dimNames, meanPrior)}) x(b, u)",
          Oracle.relation("rel", rel), speech(rel, greedy.speech.facts))
      }
    }
  }

  test("m=1 returns the single best fact") {
    val res = exact(grid, 1, 0.0)
    assert(math.abs(res.speech.utility - 35.0) < 1e-9)
    assert(res.speech.facts.map(_.dims.isEmpty) == Seq(true))
    Oracle.assertEquivalent(Seq(Seq(35.0)), bestSql(grid.dimNames, 1, "0.0"),
      Oracle.relation("rel", grid))
  }

  test("reports base error D(∅)") {
    val res = exact(grid, 1, 0.0)
    assert(res.baseError == 50.0)
    Oracle.assertEquivalent(Seq(Seq(res.baseError, res.speech.utility)),
      errorsSql(grid.dimNames, "0.0"), Oracle.relation("rel", grid), speech(grid, res.speech.facts))
  }
}

package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Tests for the greedy algorithm (Alg. 2, Thm 3). */
class GreedySpec extends AnyFunSuite {

  private val grid = TestUtil.paperGrid

  test("greedy on the grid picks the overall fact first (utility 35)") {
    val res = GreedySummarizer.summarizeRelation(grid, 2, 1,
      strategy = ExhaustiveSelection)
    // summarizeRelation uses the mean prior; use zero prior explicitly here.
    val index = FactGen.build(grid, 2)
    val res0 = GreedySummarizer.summarize(index, 1, 0.0)
    assert(res0.speech.facts.head.dims.isEmpty)
    assert(res0.speech.utility == 35.0)
    assert(res.speech.utility >= 0.0)
  }

  test("greedy on the grid reaches the 2-fact optimum 42.5") {
    val index = FactGen.build(grid, 2)
    val res = GreedySummarizer.summarize(index, 2, 0.0)
    assert(res.speech.utility == 42.5)
  }

  test("per-iteration gains are non-increasing (submodularity)") {
    (0 until 50).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 60)
      val res = GreedySummarizer.summarizeRelation(rel, 2, 4)
      res.gains.sliding(2).foreach {
        case Seq(a, b) => assert(a >= b - 1e-9, s"seed=$seed gains=${res.gains}")
        case _ =>
      }
    }
  }

  test("greedy utility equals the sum of per-iteration gains") {
    (0 until 50).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 60)
      val res = GreedySummarizer.summarizeRelation(rel, 2, 3)
      assert(math.abs(res.speech.utility - res.gains.sum) < 1e-9, s"seed=$seed")
    }
  }

  test("greedy utility matches independent Eval of the selected facts") {
    (0 until 50).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 60)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val res = GreedySummarizer.summarize(index, 3, prior)
      val u = Eval.utility(rel, res.speech.facts, prior)
      assert(math.abs(u - res.speech.utility) < 1e-9, s"seed=$seed")
    }
  }

  test("greedy is within (1 − 1/e) of the brute-force optimum (Thm 3, 60 instances)") {
    val bound = 1.0 - 1.0 / math.E
    (0 until 60).foreach { seed =>
      val rnd = new Random(seed)
      val rel = TestUtil.randomRelation(rnd, 2, 2, 15 + rnd.nextInt(15))
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val m = 1 + rnd.nextInt(2)
      val greedy = GreedySummarizer.summarize(index, m, prior)
      val opt = BruteForce.best(index, m, prior)
      assert(greedy.speech.utility >= bound * opt.utility - 1e-9,
        s"seed=$seed greedy=${greedy.speech.utility} opt=${opt.utility}")
    }
  }

  test("each greedy step picks a fact with globally maximal gain") {
    (0 until 30).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 2, 3, 40)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val res = GreedySummarizer.summarize(index, 1, prior)
      if (res.speech.facts.nonEmpty) {
        val firstGain = res.gains.head
        val maxSingle = index.facts.map(f =>
          Eval.utility(rel, IndexedSeq(f), prior)).max
        assert(math.abs(firstGain - maxSingle) < 1e-9, s"seed=$seed")
      }
    }
  }

  test("greedy stops early when no fact adds utility") {
    // Constant target: every fact's typical equals the prior → zero gains.
    val flat = TestUtil.grid(Map(
      ("A", "N") -> Seq(5.0), ("A", "S") -> Seq(5.0),
      ("B", "N") -> Seq(5.0), ("B", "S") -> Seq(5.0)))
    val res = GreedySummarizer.summarizeRelation(flat, 2, 3)
    assert(res.speech.facts.isEmpty && res.speech.utility == 0.0)
  }

  test("greedy never selects more than m facts") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 50)
      val res = GreedySummarizer.summarizeRelation(rel, 2, 2)
      assert(res.speech.facts.length <= 2, s"seed=$seed")
    }
  }

  test("greedy selects distinct facts") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 50)
      val res = GreedySummarizer.summarizeRelation(rel, 2, 4)
      val keys = res.speech.facts.map(f => (f.dims.toSeq, f.values.toSeq))
      assert(keys.distinct.length == keys.length, s"seed=$seed")
    }
  }

  test("greedy is deterministic") {
    val rel = TestUtil.randomRelation(new Random(99), 3, 4, 80)
    val a = GreedySummarizer.summarizeRelation(rel, 2, 3)
    val b = GreedySummarizer.summarizeRelation(rel, 2, 3)
    assert(a.speech.utility == b.speech.utility)
    assert(a.speech.facts.map(_.describeScope(rel)) ==
      b.speech.facts.map(_.describeScope(rel)))
  }

  test("single-row relation is summarized exactly by one fact") {
    val one = TestUtil.grid(Map(("S", "N") -> Seq(42.0)))
    val index = FactGen.build(one, 2)
    val res = GreedySummarizer.summarize(index, 3, 0.0)
    assert(res.speech.utility == 42.0)
    assert(res.speech.facts.length == 1)
  }

  test("m larger than the useful fact count is handled gracefully") {
    val index = FactGen.build(grid, 2)
    val res = GreedySummarizer.summarize(index, 100, 0.0)
    assert(res.speech.utility == 50.0) // cell facts zero all error
    assert(res.speech.facts.length <= index.numFacts)
  }

  test("base error in the result matches D(∅)") {
    val index = FactGen.build(grid, 2)
    val res = GreedySummarizer.summarize(index, 2, 0.0)
    assert(res.baseError == 50.0)
  }

  test("stats count lazy utility passes for G-B: all groups, then possible winners") {
    val index = FactGen.build(grid, 2)
    // Iteration 1 has no stale bounds, so it evaluates all 4 groups.
    assert(GreedySummarizer.summarize(index, 1, 0.0).stats.utilityPasses == index.numPatterns)
    // Iteration 2 picks the Summer-South cell (7.5) and still evaluates all
    // 4. In iteration 3 the overall group's stale bound is 0, so it is
    // skipped: 4 + 4 + 3 passes instead of 3 × 4.
    val res = GreedySummarizer.summarize(index, 3, 0.0)
    assert(res.gains == Seq(35.0, 7.5, 5.0))
    assert(res.stats.utilityPasses == 11)
    assert(res.stats.boundPasses == 0)
  }
}

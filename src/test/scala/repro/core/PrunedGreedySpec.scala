package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Tests for fact-group pruning (Alg. 3): G-P and G-O must be *exact*
  * accelerations of G-B — same fact selections, fewer utility passes.
  */
class PrunedGreedySpec extends AnyFunSuite {

  private def utilities(rel: EncodedRelation, strategy: FactSelectionStrategy,
                        m: Int = 3): GreedyResult =
    GreedySummarizer.summarizeRelation(rel, 2, m, strategy)

  test("G-P matches G-B utility on 40 random instances") {
    (0 until 40).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed), 3, 3, 60)
      val gb = utilities(rel, ExhaustiveSelection)
      val gp = utilities(rel, NaivePruning())
      assert(math.abs(gb.speech.utility - gp.speech.utility) < 1e-9, s"seed=$seed")
    }
  }

  test("G-O matches G-B utility on 40 random instances") {
    (0 until 40).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 100), 3, 3, 60)
      val gb = utilities(rel, ExhaustiveSelection)
      val go = utilities(rel, OptimizedPruning())
      assert(math.abs(gb.speech.utility - go.speech.utility) < 1e-9, s"seed=$seed")
    }
  }

  test("G-P selects the same facts as G-B (continuous targets, no ties)") {
    (0 until 30).foreach { seed =>
      val rel = TestUtil.randomRelationCont(new Random(seed + 200), 3, 3, 60)
      val gb = utilities(rel, ExhaustiveSelection)
      val gp = utilities(rel, NaivePruning())
      assert(gb.speech.facts.map(_.describeScope(rel)) ==
        gp.speech.facts.map(_.describeScope(rel)), s"seed=$seed")
    }
  }

  test("G-O selects the same facts as G-B (continuous targets, no ties)") {
    (0 until 30).foreach { seed =>
      val rel = TestUtil.randomRelationCont(new Random(seed + 300), 3, 3, 60)
      val gb = utilities(rel, ExhaustiveSelection)
      val go = utilities(rel, OptimizedPruning())
      assert(gb.speech.facts.map(_.describeScope(rel)) ==
        go.speech.facts.map(_.describeScope(rel)), s"seed=$seed")
    }
  }

  test("group deviation-mass bound dominates every in-group gain (Alg. 3 soundness)") {
    (0 until 50).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 400), 3, 3, 50)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val state = new SummarizerState(index, prior)
      (0 until index.numPatterns).foreach { pi =>
        val bound = state.groupBound(pi)
        val (_, bestGain) = state.bestInGroup(pi)
        assert(bound >= bestGain - 1e-9, s"seed=$seed group=$pi")
      }
    }
  }

  test("bounds remain sound after facts are applied (per-iteration re-check)") {
    (0 until 30).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 500), 3, 3, 50)
      val index = FactGen.build(rel, 2)
      val state = new SummarizerState(index, rel.targetMean)
      val (fid, gain) = state.selectBest()
      if (fid >= 0 && gain > 0) {
        state.applyFact(fid)
        (0 until index.numPatterns).foreach { pi =>
          assert(state.groupBound(pi) >= state.bestInGroup(pi)._2 - 1e-9,
            s"seed=$seed group=$pi")
        }
      }
    }
  }

  test("bound of a group also dominates gains of its specializations") {
    (0 until 30).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 600), 3, 3, 50)
      val index = FactGen.build(rel, 2)
      val state = new SummarizerState(index, rel.targetMean)
      (0 until index.numPatterns).foreach { t =>
        val bound = state.groupBound(t)
        (0 until index.numPatterns).foreach { g =>
          if (index.isSpecialization(t, g))
            assert(bound >= state.bestInGroup(g)._2 - 1e-9,
              s"seed=$seed t=$t g=$g")
        }
      }
    }
  }

  test("pruned strategies perform at most as many utility passes as G-B") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 700), 4, 3, 80)
      val gb = utilities(rel, ExhaustiveSelection)
      val go = utilities(rel, OptimizedPruning())
      assert(go.stats.utilityPasses <= gb.stats.utilityPasses, s"seed=$seed")
    }
  }

  test("pruning statistics are populated when groups are pruned") {
    // Strongly skewed data: the overall group should dominate narrow groups.
    val rnd = new Random(1)
    val rel = TestUtil.randomRelation(rnd, 4, 5, 300)
    val go = utilities(rel, OptimizedPruning())
    // Not guaranteed to prune, but the counters must be consistent.
    assert(go.stats.prunedGroups >= 0)
    assert(go.stats.boundPasses >= 0)
  }

  test("G-P and G-O work on the paper grid") {
    val index = FactGen.build(TestUtil.paperGrid, 2)
    val gp = GreedySummarizer.summarize(index, 2, 0.0, NaivePruning())
    val go = GreedySummarizer.summarize(index, 2, 0.0, OptimizedPruning())
    assert(gp.speech.utility == 42.5)
    assert(go.speech.utility == 42.5)
  }

  test("strategies cope with a single-group index (maxFactDims = 0)") {
    val rel = TestUtil.paperGrid
    val index = FactGen.build(rel, 0)
    val gb = GreedySummarizer.summarize(index, 1, 0.0)
    val go = GreedySummarizer.summarize(index, 1, 0.0, OptimizedPruning())
    assert(gb.speech.utility == go.speech.utility)
  }

  test("pruned strategies match G-B on 1-dimension relations") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 800), 1, 4, 40)
      val gb = utilities(rel, ExhaustiveSelection)
      val gp = utilities(rel, NaivePruning())
      val go = utilities(rel, OptimizedPruning())
      assert(math.abs(gb.speech.utility - gp.speech.utility) < 1e-9, s"seed=$seed")
      assert(math.abs(gb.speech.utility - go.speech.utility) < 1e-9, s"seed=$seed")
    }
  }
}

package repro.core

import scala.collection.mutable
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** The dense solver kernel against plain references: a greedy that scans
  * facts in id order and derives every row's deviation from `Eval`, and the
  * brute-force optimum. G-B, G-P and G-O must equal the reference greedy bit
  * for bit: the same facts, the same per-iteration gains, the same utility.
  */
class KernelEquivalenceSpec extends AnyFunSuite {

  /** Alg. 2 without groups, bounds or pruning: each iteration scans every
    * fact in id order and keeps the first with maximal gain.
    */
  private def referenceGreedy(index: FactIndex, m: Int, prior: Double)
      : (Seq[Int], Seq[Double], Double) = {
    val rel = index.rel
    val picked = mutable.ArrayBuffer.empty[Int]
    val gains = mutable.ArrayBuffer.empty[Double]
    var done = false
    while (picked.length < m && !done) {
      val facts = picked.map(index.facts).toSeq
      val dev = rel.target.indices.map(ri =>
        math.abs(Eval.expectation(facts, rel, ri, prior) - rel.target(ri)))
      var best = -1
      var bestGain = 0.0
      index.facts.indices.foreach { fid =>
        val f = index.facts(fid)
        var gain = 0.0
        rel.target.indices.foreach { ri =>
          if (f.inScope(rel, ri)) {
            val g = dev(ri) - math.abs(f.typical - rel.target(ri))
            if (g > 0) gain += g
          }
        }
        if (gain > bestGain) { best = fid; bestGain = gain }
      }
      if (best < 0) done = true
      else { picked += best; gains += bestGain }
    }
    (picked.toSeq, gains.toSeq, Eval.utility(rel, picked.map(index.facts).toSeq, prior))
  }

  /** G-O's cost-based plan at every relation size: `OptimizedPruning` skips
    * planning below 5000 rows, and these relations are smaller.
    */
  private val planned: FactSelectionStrategy =
    ix => PruneOptimizer.optimalPlan(new CostModel(ix), ix)

  private val strategies: Seq[(String, FactSelectionStrategy)] = Seq(
    "G-B" -> ExhaustiveSelection,
    "G-P" -> NaivePruning(),
    "G-O" -> OptimizedPruning(),
    "G-O planned" -> planned)

  private def assertMatchesReference(rel: EncodedRelation, m: Int, clue: String): Unit = {
    val index = FactGen.build(rel, 2)
    val prior = rel.targetMean
    val (facts, gains, utility) = referenceGreedy(index, m, prior)
    strategies.foreach { case (name, strategy) =>
      val res = GreedySummarizer.summarize(index, m, prior, strategy)
      val ids = res.speech.facts.map(f => index.facts.indexWhere(_ eq f))
      assert(ids == facts, s"$clue $name facts")
      assert(res.gains == gains, s"$clue $name gains")
      assert(res.speech.utility == utility, s"$clue $name utility")
    }
  }

  test("every strategy equals the reference greedy on random relations with tied targets") {
    (0 until 40).foreach { seed =>
      val rnd = new Random(seed + 1000)
      val rel = TestUtil.randomRelation(rnd, 1 + rnd.nextInt(4), 4, 20 + rnd.nextInt(60))
      assertMatchesReference(rel, 1 + rnd.nextInt(4), s"seed=$seed")
    }
  }

  test("every strategy equals the reference greedy on continuous targets") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelationCont(new Random(seed + 1100), 3, 4, 60)
      assertMatchesReference(rel, 3, s"seed=$seed")
    }
  }

  test("a constant target selects nothing under every strategy") {
    val rel = TestUtil.randomRelation(new Random(7), 3, 3, 40)
    val flat = rel.copy(target = rel.target.map(_ => 4.0))
    assertMatchesReference(flat, 3, "constant")
    strategies.foreach { case (name, strategy) =>
      val res = GreedySummarizer.summarizeRelation(flat, 2, 3, strategy)
      assert(res.speech.facts.isEmpty && res.speech.utility == 0.0, name)
    }
  }

  test("a single row and m above the fact count match the reference greedy") {
    val one = TestUtil.grid(Map(("S", "N") -> Seq(42.0)))
    assertMatchesReference(one, 5, "single row")
    val rel = TestUtil.randomRelation(new Random(8), 2, 2, 12)
    assertMatchesReference(rel, FactGen.build(rel, 2).numFacts + 3, "m > facts")
  }

  test("exact equals brute force on constant, single-row and tied relations") {
    val flat = TestUtil.paperGrid.copy(target = Array.fill(4)(3.0))
    val one = TestUtil.grid(Map(("S", "N") -> Seq(42.0)))
    val tied = (0 until 20).map(seed => TestUtil.randomRelation(new Random(seed + 1200), 2, 3, 15))
    (Seq(flat, one) ++ tied).zipWithIndex.foreach { case (rel, i) =>
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      (1 to 3).foreach { m =>
        val greedy = GreedySummarizer.summarize(index, m, prior)
        val exact = ExactSummarizer.summarize(index, m, prior, Some(greedy.speech))
        val brute = BruteForce.best(index, m, prior)
        assert(!exact.timedOut)
        assert(math.abs(exact.speech.utility - brute.utility) < 1e-9, s"relation=$i m=$m")
      }
    }
  }

  test("a reused G-O instance gives the same speeches as fresh instances") {
    val reused = planned
    val rels = Seq(4, 2, 3, 1, 4).zipWithIndex.map { case (d, i) =>
      TestUtil.randomRelationCont(new Random(i + 1300), d, 3, 80)
    }
    rels.zipWithIndex.foreach { case (rel, i) =>
      val index = FactGen.build(rel, 2)
      val a = GreedySummarizer.summarize(index, 3, rel.targetMean, reused)
      val b = GreedySummarizer.summarize(index, 3, rel.targetMean,
        (ix: FactIndex) => PruneOptimizer.optimalPlan(new CostModel(ix), ix))
      assert(a.speech == b.speech && a.gains == b.gains && a.stats == b.stats, s"relation=$i")
    }
  }

  test("G-O takes no bound pass when its sources gain nothing") {
    // Under the mean prior the overall fact gains 0; as the only source it
    // gives a lower bound of 0, which can prune nothing.
    (0 until 10).foreach { seed =>
      val rel = TestUtil.randomRelationCont(new Random(seed + 1400), 3, 3, 60)
      val index = FactGen.build(rel, 2)
      val overallOnly: FactSelectionStrategy =
        ix => PrunePlan(IndexedSeq(0), PruneOptimizer.targetSequence(new CostModel(ix), ix, IndexedSeq(0)))
      val res = GreedySummarizer.summarize(index, 3, rel.targetMean, overallOnly)
      val gb = GreedySummarizer.summarize(index, 3, rel.targetMean)
      assert(res.stats.boundPasses == 0 && res.stats.prunedGroups == 0, s"seed=$seed")
      assert(res.speech == gb.speech, s"seed=$seed")
    }
  }
}

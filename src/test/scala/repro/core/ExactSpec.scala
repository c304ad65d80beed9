package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Tests for the exact algorithm (Alg. 1, Cor. 1). */
class ExactSpec extends AnyFunSuite {

  private val grid = TestUtil.paperGrid

  test("exact finds the grid optimum 42.5 with m=2") {
    val index = FactGen.build(grid, 2)
    val greedy = GreedySummarizer.summarize(index, 2, 0.0)
    val res = ExactSummarizer.summarize(index, 2, 0.0, Some(greedy.speech))
    assert(!res.timedOut)
    assert(res.speech.utility == 42.5)
  }

  test("exact matches brute force on 60 random instances (Cor. 1)") {
    (0 until 60).foreach { seed =>
      val rnd = new Random(seed)
      val rel = TestUtil.randomRelation(rnd, 2, 2, 10 + rnd.nextInt(20))
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val m = 1 + rnd.nextInt(3)
      val greedy = GreedySummarizer.summarize(index, m, prior)
      val exact = ExactSummarizer.summarize(index, m, prior, Some(greedy.speech))
      val brute = BruteForce.best(index, m, prior)
      assert(!exact.timedOut, s"seed=$seed")
      assert(math.abs(exact.speech.utility - brute.utility) < 1e-9,
        s"seed=$seed exact=${exact.speech.utility} brute=${brute.utility}")
    }
  }

  test("exact without a lower bound still matches brute force") {
    (0 until 30).foreach { seed =>
      val rnd = new Random(seed + 500)
      val rel = TestUtil.randomRelation(rnd, 2, 2, 10 + rnd.nextInt(15))
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val exact = ExactSummarizer.summarize(index, 2, prior, None)
      val brute = BruteForce.best(index, 2, prior)
      assert(math.abs(exact.speech.utility - brute.utility) < 1e-9, s"seed=$seed")
    }
  }

  test("exact utility is at least greedy utility (pruning preserves optimum, Thm 2)") {
    (0 until 40).foreach { seed =>
      val rnd = new Random(seed + 900)
      val rel = TestUtil.randomRelation(rnd, 3, 3, 30)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val greedy = GreedySummarizer.summarize(index, 3, prior)
      val exact = ExactSummarizer.summarize(index, 3, prior, Some(greedy.speech))
      assert(exact.speech.utility >= greedy.speech.utility - 1e-9, s"seed=$seed")
    }
  }

  test("a tighter lower bound reduces enumeration") {
    val rel = TestUtil.randomRelation(new Random(4), 3, 4, 80)
    val index = FactGen.build(rel, 2)
    val prior = rel.targetMean
    val greedy = GreedySummarizer.summarize(index, 3, prior)
    val withBound = ExactSummarizer.summarize(index, 3, prior, Some(greedy.speech))
    val noBound = ExactSummarizer.summarize(index, 3, prior, None)
    assert(withBound.enumerated <= noBound.enumerated)
    assert(math.abs(withBound.speech.utility - noBound.speech.utility) < 1e-9)
  }

  test("enumeration counts are pinned with and without the greedy bound") {
    val counts = (30 until 34).map { seed =>
      val rnd = new Random(seed)
      val rel =
        if (seed % 2 == 0) TestUtil.randomRelation(rnd, 4, 4, 200)
        else TestUtil.randomRelationCont(rnd, 4, 4, 200)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val greedy = GreedySummarizer.summarize(index, 3, prior)
      (ExactSummarizer.summarize(index, 3, prior, Some(greedy.speech)).enumerated,
        ExactSummarizer.summarize(index, 3, prior, None).enumerated)
    }
    assert(counts == Seq((223, 8473), (18, 18472), (21, 9919), (48, 27775)))
  }

  test("exact exposes the fallback speech on timeout") {
    val rel = TestUtil.randomRelation(new Random(5), 4, 4, 200)
    val index = FactGen.build(rel, 2)
    val prior = rel.targetMean
    val greedy = GreedySummarizer.summarize(index, 3, prior)
    val res = ExactSummarizer.summarize(index, 3, prior, Some(greedy.speech),
      deadlineNanos = Some(System.nanoTime() - 1)) // already expired
    assert(res.timedOut)
    assert(res.speech.utility == greedy.speech.utility)
  }

  /** 24 rows, 4 dims of 10 values, facts over all 4 dims: k = 288 facts,
    * and with b = 0 every one of the C(k, 3) > 2,000,000 length-3 speeches
    * is kept.
    */
  private def wideInstance: EncodedRelation = {
    val rnd = new Random(6)
    TestUtil.relation(IndexedSeq("a", "b", "c", "d"),
      IndexedSeq.fill(4)((0 until 10).map(_.toString)),
      Array.fill(24)((Array.fill(4)(rnd.nextInt(10)), rnd.nextInt(100).toDouble)))
  }

  test("an expired deadline stops the search at its first full-length speech") {
    val rel = wideInstance
    val index = FactGen.build(rel, 4)
    val res = ExactSummarizer.summarize(index, 3, rel.targetMean, None,
      deadlineNanos = Some(System.nanoTime() - 1))
    assert(res.timedOut)
    assert(res.enumerated <= 3)
  }

  test("unbounded search past 2M length-m partials finishes at the bounded optimum") {
    val rel = wideInstance
    val index = FactGen.build(rel, 4)
    val k = index.numFacts.toLong
    assert(k * (k - 1) * (k - 2) / 6 > 2_000_000)
    val prior = rel.targetMean
    val greedy = GreedySummarizer.summarize(index, 3, prior)
    val bounded = ExactSummarizer.summarize(index, 3, prior, Some(greedy.speech))
    val unbounded = ExactSummarizer.summarize(index, 3, prior, None)
    assert(!bounded.timedOut && !unbounded.timedOut)
    assert(unbounded.enumerated == k + k * (k - 1) / 2 + k * (k - 1) * (k - 2) / 6)
    assert(math.abs(unbounded.speech.utility - bounded.speech.utility) < 1e-9)
  }

  test("m = 1 returns the best single fact") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 300), 2, 3, 30)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val exact = ExactSummarizer.summarize(index, 1, prior)
      val best = index.facts.map(f => Eval.utility(rel, IndexedSeq(f), prior)).max
      assert(math.abs(exact.speech.utility - best) < 1e-9, s"seed=$seed")
    }
  }

  test("m exceeding the fact count caps the speech length") {
    val one = TestUtil.grid(Map(("S", "N") -> Seq(7.0), ("S", "S") -> Seq(9.0)))
    val index = FactGen.build(one, 2)
    val exact = ExactSummarizer.summarize(index, 50, 0.0)
    assert(!exact.timedOut)
    assert(exact.speech.utility == 16.0) // both cells exactly described
  }

  test("exact result facts reproduce the reported utility under Eval") {
    (0 until 20).foreach { seed =>
      val rel = TestUtil.randomRelation(new Random(seed + 700), 2, 3, 25)
      val index = FactGen.build(rel, 2)
      val prior = rel.targetMean
      val exact = ExactSummarizer.summarize(index, 2, prior)
      val u = Eval.utility(rel, exact.speech.facts, prior)
      assert(math.abs(u - exact.speech.utility) < 1e-9, s"seed=$seed")
    }
  }

  test("summarizeRelation wires greedy bound and mean prior") {
    val res = ExactSummarizer.summarizeRelation(grid, 2, 2)
    assert(!res.timedOut)
    // With the mean prior (12.5), the overall fact is useless; optimum uses
    // scoped facts. Sanity: utility positive and ≥ greedy.
    val greedy = GreedySummarizer.summarizeRelation(grid, 2, 2)
    assert(res.speech.utility >= greedy.speech.utility - 1e-9)
  }

  test("baseError reported matches D(∅)") {
    val index = FactGen.build(grid, 2)
    val res = ExactSummarizer.summarize(index, 2, 0.0)
    assert(res.baseError == 50.0)
  }
}

package repro.core

import scala.collection.mutable

/** Counters describing the work a summarization run performed — used by the
  * benches to show where pruning saves passes over the data.
  *
  * @param utilityPasses number of per-group utility computations (the paper's
  *                      fact–row joins, Alg. 2 line 7 / Alg. 3 lines 9 & 24)
  * @param boundPasses   number of per-group deviation-mass bound computations
  *                      (Alg. 3 line 15 — group-by without join)
  * @param prunedGroups  fact groups skipped thanks to bound pruning
  */
final case class SolveStats(utilityPasses: Int, boundPasses: Int, prunedGroups: Int)

/** Mutable state of a greedy run: per-row current deviation (equivalently the
  * user-expectation column of Alg. 2 line 11), the strategy's pruning plan,
  * computed once per run, and each fact group's stale bound.
  *
  * The stale bound of a group is its best gain at its last utility pass
  * (+∞ before the first). Utility is submodular (Thm 1), so it bounds every
  * gain of the group in later iterations; `selectBest` skips groups whose
  * stale bound cannot reach the best gain found — Minoux's accelerated
  * greedy (CELF), applied per group. It stays exact in floating point:
  * each gain term max(0, dev_r − |c − v_r|) is monotone in dev_r, which only
  * falls, and a sum of non-negative terms in fixed row order is monotone in
  * every term.
  */
final class SummarizerState(val index: FactIndex, val prior: Double,
                            strategy: FactSelectionStrategy = ExhaustiveSelection) {

  /** Current per-row deviation |E(F,r) − v_r|; initialized from the prior. */
  val dev: Array[Double] = index.priorDeviations(prior)

  /** D(∅): accumulated deviation under the prior alone. */
  val baseError: Double = dev.sum

  var utilityPasses = 0
  var boundPasses = 0
  var prunedGroups = 0
  private val selected = mutable.ArrayBuffer.empty[Fact]
  private val plan = strategy.plan(index)
  private val isSource = Array.tabulate(index.numPatterns)(plan.sources.toSet)
  private val staleBound = Array.fill(index.numPatterns)(Double.PositiveInfinity)
  private val scratch = new Array[Double](index.numFacts)

  def selectedFacts: IndexedSeq[Fact] = selected.toIndexedSeq
  def stats: SolveStats = SolveStats(utilityPasses, boundPasses, prunedGroups)

  /** Utility gain of every fact in group `pi` under the current expectations;
    * returns the (factId, gain) with maximal gain, lowest id first (−1 if no
    * fact has a positive gain), and records the gain as the group's stale
    * bound. One pass over the rows — the analog of the paper's fact–row join.
    */
  def bestInGroup(pi: Int): (Int, Double) = {
    utilityPasses += 1
    index.gains(pi, dev, scratch)
    var bestId = -1
    var bestGain = 0.0
    index.groupFacts(pi).foreach { fid =>
      if (scratch(fid) > bestGain) { bestId = fid; bestGain = scratch(fid) }
    }
    staleBound(pi) = bestGain
    (bestId, bestGain)
  }

  /** Upper bound on the utility gain of ANY fact in group `pi` (and of any
    * specialization): the maximal current deviation mass within one scope of
    * the group (Alg. 3 line 15) — adding a fact can at most zero the error in
    * its scope.
    */
  def groupBound(pi: Int): Double = {
    boundPasses += 1
    index.masses(pi, dev, scratch)
    index.groupFacts(pi).foldLeft(0.0)((m, fid) => math.max(m, scratch(fid)))
  }

  /** Alg. 2 line 7 under the plan (Alg. 3): the fact with globally maximal
    * gain, lowest fact id among ties, or (−1, 0) if no gain is positive.
    * Sources are searched first; their best gain `lb` lets a target's bound
    * pass prune the target and its specializations. A bound pass is taken
    * only if it can prune a group the search would visit: `lb` > 0 and some
    * alive specialization has a stale bound ≥ `lb`. Survivors are searched
    * last. The plan with every group a source and no target is G-B.
    */
  def selectBest(): (Int, Double) = {
    val groups = 0 until index.numPatterns
    val alive = Array.fill(index.numPatterns)(true)
    val best = search(plan.sources, (-1, 0.0))
    val lb = best._2
    if (lb > 0) plan.targets.foreach { t =>
      if (alive(t) && !isSource(t)) {            // Alg. 3 line 13: still unpruned?
        val specs = groups.filter(g => alive(g) && !isSource(g) && index.isSpecialization(t, g))
        if (specs.exists(staleBound(_) >= lb) && lb > groupBound(t)) {
          specs.foreach(alive(_) = false)          // Alg. 3 line 17: source dominates
          prunedGroups += specs.length
        }
      }
    }
    search(groups.filter(g => alive(g) && !isSource(g)), best)
  }

  /** Lazy search of `groups`, by descending stale bound: a group is skipped
    * when its bound is ≤ 0 or below the best gain so far. Ties are evaluated,
    * so the lowest fact id wins as in an exhaustive scan.
    */
  private def search(groups: Seq[Int], from: (Int, Double)): (Int, Double) = {
    var (bestId, bestGain) = from
    groups.sortWith((a, b) => staleBound(a) > staleBound(b) ||
      (staleBound(a) == staleBound(b) && a < b)).foreach { g =>
      if (staleBound(g) > 0 && staleBound(g) >= bestGain) {
        val (fid, gain) = bestInGroup(g)
        if (gain > bestGain || (gain == bestGain && gain > 0 && fid < bestId)) {
          bestId = fid
          bestGain = gain
        }
      }
    }
    (bestId, bestGain)
  }

  /** Add `factId` to the speech and refresh per-row deviations (Alg. 2
    * line 11). Returns the realized utility gain.
    */
  def applyFact(factId: Int): Double = {
    selected += index.facts(factId)
    index.applyFact(factId, dev)
  }
}

/** Strategy for Alg. 2 line 7: the pruning plan (Alg. 3) under which the
  * fact with globally maximal utility gain is found. A plan only orders and
  * prunes the search, which stays exact, so every strategy selects the same
  * facts and keeps the greedy (1 − 1/e) guarantee (§VI-A). Strategies hold
  * no state; a run computes its plan once, in its `SummarizerState`.
  */
trait FactSelectionStrategy {
  def plan(index: FactIndex): PrunePlan
}

/** G-B: compute utilities for every fact group, no bound passes. */
object ExhaustiveSelection extends FactSelectionStrategy {
  def plan(index: FactIndex): PrunePlan = PrunePlan.exhaustive(index)
}

/** Result of a greedy run.
  *
  * @param speech    selected facts with exact utility
  * @param gains     realized utility gain per iteration (non-increasing)
  * @param baseError D(∅) — for scaling utilities to one
  */
final case class GreedyResult(speech: Speech, gains: IndexedSeq[Double],
                              baseError: Double, stats: SolveStats)

/** Greedy speech construction (Alg. 2): iteratively add the fact with maximal
  * utility gain; guaranteed within (1 − 1/e) of the optimum (Thm 3).
  */
object GreedySummarizer {

  def summarize(index: FactIndex, m: Int, prior: Double,
                strategy: FactSelectionStrategy = ExhaustiveSelection): GreedyResult = {
    val state = new SummarizerState(index, prior, strategy)
    val gains = mutable.ArrayBuffer.empty[Double]
    var i = 0
    var exhausted = false
    while (i < m && !exhausted) {
      val (fid, gain) = state.selectBest()
      // A zero-gain best fact cannot improve utility; stop early.
      if (fid < 0 || gain <= 0) exhausted = true
      else { gains += state.applyFact(fid); i += 1 }
    }
    val utility = state.baseError - state.dev.sum
    GreedyResult(Speech(state.selectedFacts, utility), gains.toIndexedSeq,
      state.baseError, state.stats)
  }

  /** Convenience: build the fact index and run greedy on a relation. */
  def summarizeRelation(rel: EncodedRelation, maxFactDims: Int, m: Int,
                        strategy: FactSelectionStrategy = ExhaustiveSelection): GreedyResult = {
    val index = FactGen.build(rel, maxFactDims)
    summarize(index, m, rel.targetMean, strategy)
  }
}

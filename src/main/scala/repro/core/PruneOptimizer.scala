package repro.core

import scala.collection.mutable

/** A pruning strategy (§VI-B): compute exact utilities for the `sources`
  * groups first, then try to discard each `targets` group (and all of its
  * specializations) by comparing its deviation-mass bound to the best source
  * gain. Group ids index into `FactIndex.patterns`.
  */
final case class PrunePlan(sources: IndexedSeq[Int], targets: IndexedSeq[Int])

object PrunePlan {
  /** The no-pruning plan: every group a source, no targets (G-B). */
  def exhaustive(index: FactIndex): PrunePlan =
    PrunePlan(index.patterns.indices, IndexedSeq.empty)
}

/** Gaussian helpers for the §VI-C pruning-probability model. */
object Gaussian {

  /** Abramowitz–Stegun 7.1.26 approximation of erf (|ε| ≤ 1.5e−7). */
  def erf(x: Double): Double = {
    val sign = if (x < 0) -1.0 else 1.0
    val ax = math.abs(x)
    val t = 1.0 / (1.0 + 0.3275911 * ax)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t
      - 0.284496736) * t + 0.254829592) * t * math.exp(-ax * ax)
    sign * y
  }

  /** Standard normal CDF Φ. */
  def phi(x: Double): Double = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
}

/** Cost model for pruning plans (§VI-C).
  *
  * Per-fact utility is modelled as N(1/M(g), σ²) — mean inversely
  * proportional to the group's fact count M(g) under a uniform row spread —
  * so the probability that a source fact dominates a target bound is a
  * comparison of two normals (σ = 0.1). Pass costs: a utility computation
  * is a fact–row join (`5n`), a bound computation a plain group-by (`n`).
  */
final class CostModel(index: FactIndex) {
  private val n = index.rel.numRows.toDouble
  private val groups = index.patterns.indices
  private val sigma = 0.1

  def costU(g: Int): Double = 5.0 * n
  def costD(g: Int): Double = n

  /** Pr(P_{s→t}): a fact from source `s` beats the bound of target `t`. */
  def prSourceBeatsTarget(s: Int, t: Int): Double = {
    val mus = 1.0 / math.max(1, index.groupSize(s))
    val mut = 1.0 / math.max(1, index.groupSize(t))
    Gaussian.phi((mus - mut) / (sigma * math.sqrt(2.0)))
  }

  /** Pr(P_t): target `t` is pruned by at least one source in `sources`. */
  def prPruned(t: Int, sources: Iterable[Int]): Double =
    1.0 - sources.foldLeft(1.0)((acc, s) => acc * (1.0 - prSourceBeatsTarget(s, t)))

  /** Estimated execution cost of Alg. 3 under `plan` (§VI-C formula):
    * source joins + target bounds + expected joins for unpruned groups.
    */
  def planCost(plan: PrunePlan): Double = {
    val srcSet = plan.sources.toSet
    val sourceCost = plan.sources.map(costU).sum
    val boundCost = plan.targets.map(costD).sum
    val residual = groups.filterNot(srcSet).map { g =>
      val prNotPruned = plan.targets
        .filter(t => index.isSpecialization(t, g))
        .foldLeft(1.0)((acc, t) => acc * (1.0 - prPruned(t, plan.sources)))
      prNotPruned * costU(g)
    }.sum
    sourceCost + boundCost + residual
  }
}

/** Candidate-plan enumeration (Alg. 4) and cost-based plan choice (§VI-D). */
object PruneOptimizer {

  /** Groups ordered by fact count M(g) ascending (id-tie-broken): Alg. 4
    * only admits source sets that are prefixes of this order.
    */
  def groupsByFactCount(index: FactIndex): IndexedSeq[Int] =
    index.patterns.indices.sortBy(g => (index.groupSize(g), g))

  /** Target-value heuristic H(t, S, L) (§VI-D): expected number of fact
    * groups removed when bounding target `t`.
    */
  def targetValue(cm: CostModel, index: FactIndex, t: Int,
                  sources: Iterable[Int], left: Iterable[Int]): Double =
    cm.prPruned(t, sources) * left.count(l => index.isSpecialization(t, l))

  /** The target sequence Alg. 4 builds for a fixed source set: repeatedly
    * take the H-maximal remaining group, then drop its specializations.
    */
  def targetSequence(cm: CostModel, index: FactIndex,
                     sources: IndexedSeq[Int]): IndexedSeq[Int] = {
    val targets = mutable.ArrayBuffer.empty[Int]
    var left = index.patterns.indices.filterNot(sources.contains(_)).toVector
    while (left.nonEmpty) {
      val t = left.maxBy(g => (targetValue(cm, index, g, sources, left), -g))
      targets += t
      left = left.filterNot(l => index.isSpecialization(t, l))
    }
    targets.toIndexedSeq
  }

  /** All candidate plans per Alg. 4, plus the no-pruning plan (every group a
    * source, no targets) so the optimizer may decline to prune. Source
    * prefixes are capped at 4 groups: Alg. 4 prioritizes groups with few
    * member facts as sources (their expected per-fact utility is highest),
    * and longer prefixes only add join cost — capping keeps plan
    * enumeration cheap enough to run per summarization problem.
    */
  def candidatePlans(cm: CostModel, index: FactIndex): IndexedSeq[PrunePlan] = {
    val ordered = groupsByFactCount(index)
    val plans = mutable.ArrayBuffer.empty[PrunePlan]
    for (k <- 1 until math.min(ordered.length, 5)) {
      val sources = ordered.take(k)
      val seq = targetSequence(cm, index, sources)
      // Alg. 4 line 20: one candidate per prefix of the target sequence.
      for (len <- 1 to seq.length) plans += PrunePlan(sources, seq.take(len))
    }
    plans += PrunePlan.exhaustive(index)
    plans.toIndexedSeq
  }

  /** OPTPRUNE (Alg. 3 line 7): minimum-estimated-cost candidate plan. */
  def optimalPlan(cm: CostModel, index: FactIndex): PrunePlan =
    candidatePlans(cm, index).minBy(cm.planCost)
}

/** G-P: simple pruning strategy — source is the group with fewest facts,
  * targets follow Alg. 4's consideration order, no cost-based choice.
  */
object NaivePruning {
  def apply(): FactSelectionStrategy = { index =>
    val cm = new CostModel(index)
    val sources = IndexedSeq(PruneOptimizer.groupsByFactCount(index).head)
    PrunePlan(sources, PruneOptimizer.targetSequence(cm, index, sources))
  }
}

/** G-O: cost-based pruning-plan optimization (§VI-C/D).
  *
  * For small relations the fixed cost of plan enumeration exceeds anything
  * pruning can save, so below 5000 rows the optimizer falls back to the
  * no-pruning plan outright (equivalent to G-B).
  */
object OptimizedPruning {
  def apply(): FactSelectionStrategy = { index =>
    if (index.rel.numRows < 5000) PrunePlan.exhaustive(index)
    else PruneOptimizer.optimalPlan(new CostModel(index), index)
  }
}

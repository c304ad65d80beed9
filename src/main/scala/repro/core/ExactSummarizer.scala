package repro.core

import scala.collection.mutable

/** Exact speech optimization (Alg. 1): iterative expansion of partial
  * speeches with two sound pruning rules —
  *
  *  1. canonical fact order: facts ranked by (single-fact utility desc,
  *     fact id asc); a speech may only append facts of strictly larger rank,
  *     so every fact *set* is enumerated exactly once (§IV-B, rule 1);
  *  2. bound pruning: a partial speech of new length i with utility bound
  *     S.U survives only if `S.U + (m − i + 1) · u1(new) ≥ b`, with `b` a
  *     lower bound on the optimal utility (Lemma 1 / Thm 2).
  *
  * The final pass computes exact utilities for all surviving full-length
  * speeches (Alg. 1 line 13) and returns the maximum.
  */
object ExactSummarizer {

  /** @param speech      optimal speech found (falls back to the `lowerBound`
    *                    speech when the deadline expired)
    * @param timedOut    deadline expired before the search completed
    * @param enumerated  partial speeches materialized across all iterations
    */
  final case class Result(speech: Speech, baseError: Double,
                          timedOut: Boolean, enumerated: Long)

  /** @param index       candidate facts
    * @param m           maximal speech length
    * @param prior       constant prior expectation
    * @param lowerBound  a known speech (typically greedy) supplying bound b
    * @param deadlineNanos absolute `System.nanoTime` deadline, if any
    * @param maxPartial  memory guard on the partial-speech frontier
    */
  def summarize(index: FactIndex, m: Int, prior: Double,
                lowerBound: Option[Speech] = None,
                deadlineNanos: Option[Long] = None,
                maxPartial: Int = 2_000_000): Result = {
    val dev0 = index.priorDeviations(prior)
    val baseError = dev0.sum
    val k = index.numFacts
    val fallback = lowerBound.getOrElse(Speech(IndexedSeq.empty, 0.0))
    val b = fallback.utility

    def expired: Boolean = deadlineNanos.exists(System.nanoTime() > _)

    // Line 6: single-fact utilities, one utility pass per fact group.
    val u1 = new Array[Double](k)
    (0 until index.numPatterns).foreach(index.gains(_, dev0, u1))

    // Canonical rank: by single-fact utility desc, id asc.
    val ranked: Array[Int] = Array.range(0, k).sortBy(fid => (-u1(fid), fid))
    val rankU1: Array[Double] = ranked.map(u1)
    val targetLen = math.min(m, k)

    // Partial speeches as rank arrays plus their utility upper bound ΣU.
    final case class Partial(ranks: Array[Int], ubound: Double)
    var frontier: mutable.ArrayBuffer[Partial] = mutable.ArrayBuffer.empty
    var enumerated = 0L
    var j = 0
    while (j < k) {
      // Length-1 pruning: m · u1 ≥ b must be attainable.
      if (rankU1(j) * m >= b) frontier += Partial(Array(j), rankU1(j))
      j += 1
    }
    enumerated += frontier.length

    var i = 2
    var aborted = false
    while (i <= targetLen && !aborted) {
      val remainingFactor = m - i + 1 // (m − i + 1) facts may still count u1(new)
      val next = mutable.ArrayBuffer.empty[Partial]
      var si = 0
      while (si < frontier.length && !aborted) {
        val p = frontier(si)
        val lastRank = p.ranks(p.ranks.length - 1)
        var nr = lastRank + 1
        while (nr < k) {
          if (p.ubound + remainingFactor * rankU1(nr) >= b)
            next += Partial(p.ranks :+ nr, p.ubound + rankU1(nr))
          nr += 1
        }
        si += 1
        if ((si & 0x3ff) == 0 && (expired || next.length > maxPartial)) aborted = true
      }
      if (next.length > maxPartial) aborted = true
      enumerated += next.length
      frontier = next
      i += 1
    }
    if (aborted || expired)
      return Result(fallback, baseError, timedOut = true, enumerated)

    // Line 13: exact utility of each surviving speech; keep the maximum.
    var bestFacts: IndexedSeq[Fact] = fallback.facts
    var bestU = b
    var si = 0
    while (si < frontier.length && !aborted) {
      val fids = frontier(si).ranks.map(ranked)
      val u = index.utility(fids, dev0)
      if (u > bestU) { bestU = u; bestFacts = fids.map(index.facts).toIndexedSeq }
      si += 1
      if ((si & 0xff) == 0 && expired) aborted = true
    }
    if (aborted)
      Result(fallback, baseError, timedOut = true, enumerated)
    else
      Result(Speech(bestFacts, bestU), baseError, timedOut = false, enumerated)
  }

  /** Greedy lower bound + exact search — the paper's intended pipeline. */
  def summarizeRelation(rel: EncodedRelation, maxFactDims: Int, m: Int,
                        deadlineNanos: Option[Long] = None): Result = {
    val index = FactGen.build(rel, maxFactDims)
    val prior = rel.targetMean
    val greedy = GreedySummarizer.summarize(index, m, prior)
    summarize(index, m, prior, Some(greedy.speech), deadlineNanos)
  }
}

/** Reference oracle for tests: enumerate every fact combination of size ≤ m
  * and evaluate utilities exactly. Exponential — tiny instances only.
  */
object BruteForce {
  def best(index: FactIndex, m: Int, prior: Double): Speech = {
    val ids = index.facts.indices.toList
    val combos = (0 to math.min(m, ids.length)).flatMap(ids.combinations)
    combos.foldLeft(Speech(IndexedSeq.empty, 0.0)) { (best, combo) =>
      val facts = combo.map(index.facts).toIndexedSeq
      val u = Eval.utility(index.rel, facts, prior)
      if (u > best.utility) Speech(facts, u) else best
    }
  }
}

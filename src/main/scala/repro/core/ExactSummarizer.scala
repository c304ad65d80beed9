package repro.core

/** Exact speech optimization (Alg. 1): a depth-first walk over partial
  * speeches with two sound pruning rules —
  *
  *  1. canonical fact order: facts ranked by (single-fact utility desc,
  *     fact id asc); a speech may only append facts of strictly larger rank,
  *     so every fact *set* is enumerated exactly once (§IV-B, rule 1);
  *  2. bound pruning: a partial speech of new length i with utility bound
  *     S.U survives only if `S.U + (m − i + 1) · u1(new) ≥ b`, with `b` a
  *     lower bound on the optimal utility (Lemma 1 / Thm 2).
  *
  * The rules fix which partial speeches exist, not the order of the visit.
  * Depth first in ascending rank order (branch and bound, Land & Doig 1960)
  * reaches the full-length speeches in the order Alg. 1's last level lists
  * them, so the result and the enumeration count are Alg. 1's, while memory
  * holds one path of at most m facts. Each full-length speech gets its exact
  * utility (Alg. 1 line 13); the first strict maximum is returned.
  */
object ExactSummarizer {

  /** @param speech      optimal speech found (falls back to the `lowerBound`
    *                    speech when the deadline expired)
    * @param timedOut    deadline expired before the search completed
    * @param enumerated  partial speeches that passed the bound, all lengths
    */
  final case class Result(speech: Speech, baseError: Double,
                          timedOut: Boolean, enumerated: Long)

  /** @param index       candidate facts
    * @param m           maximal speech length
    * @param prior       constant prior expectation
    * @param lowerBound  a known speech (typically greedy) supplying bound b
    * @param deadlineNanos absolute `System.nanoTime` deadline, if any
    */
  def summarize(index: FactIndex, m: Int, prior: Double,
                lowerBound: Option[Speech] = None,
                deadlineNanos: Option[Long] = None): Result = {
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

    val fids = new Array[Int](targetLen) // fact ids of the speech on the path
    var enumerated = 0L
    var aborted = false
    var bestFacts: IndexedSeq[Fact] = fallback.facts
    var bestU = b

    // Appends each rank from `from` on whose bound reaches b at position i
    // (new length i + 1) to a speech with utility bound `ubound`. rankU1 is
    // non-increasing, so the first rank that fails ends the loop. The
    // deadline is checked every 1,024 partials and before each leaf's
    // utility pass, which scans every row.
    def extend(i: Int, from: Int, ubound: Double): Unit = {
      val remainingFactor = m - i // m − (i + 1) + 1 facts may still count u1(new)
      var nr = from
      while (nr < k && !aborted && ubound + remainingFactor * rankU1(nr) >= b) {
        fids(i) = ranked(nr)
        enumerated += 1
        if ((enumerated & 0x3ff) == 0 && expired) aborted = true
        if (i + 1 < targetLen) extend(i + 1, nr + 1, ubound + rankU1(nr))
        else if (expired) aborted = true
        else {
          // Line 13: exact utility of a full-length speech; keep the maximum.
          val u = index.utility(fids, dev0)
          if (u > bestU) { bestU = u; bestFacts = fids.map(index.facts).toIndexedSeq }
        }
        nr += 1
      }
    }
    extend(0, 0, 0.0)

    if (aborted || expired)
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

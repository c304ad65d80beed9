package repro.vocalize

import scala.util.Random
import repro.core._

/** A baseline fact whose typical value is only known as a confidence range —
  * the sampling baseline "provides only value ranges as opposed to specific
  * averages (to account for imprecision of sampling)" (§VIII-E).
  */
final case class RangeFact(fact: Fact, lo: Double, hi: Double) {
  def mid: Double = (lo + hi) / 2
}

/** @param facts        selected range facts, in selection order
  * @param latencyNanos time until the FIRST sentence was selected — the
  *                     baseline's voice-output latency (Fig. 10)
  * @param totalNanos   total sampling/processing time
  */
final case class BaselineResult(facts: IndexedSeq[RangeFact],
                                latencyNanos: Long, totalNanos: Long) {
  /** Model utility using range midpoints as typical values. */
  def utility(rel: EncodedRelation, prior: Double): Double =
    Eval.utility(rel, facts.map(rf => rf.fact.copy(typical = rf.mid)), prior)
}

/** Run-time sampling baseline in the spirit of CiceroDB ([25], [28]): at
  * query time, draw a row sample, estimate fact typical values and utilities
  * on the sample, and greedily emit one sentence per sampling round. No
  * pre-processing — all cost is paid at query time, which is exactly the
  * latency trade-off Fig. 10 measures.
  */
object SamplingBaseline {

  /** @param rel        relation for the queried data subset
    * @param maxFactDims fact scope width (as in the main system)
    * @param m          number of sentences
    * @param sampleSize rows drawn per sentence round
    */
  def summarize(rel: EncodedRelation, maxFactDims: Int, m: Int,
                sampleSize: Int, seed: Long): BaselineResult = {
    val start = System.nanoTime()
    val rnd = new Random(seed)
    val n = rel.numRows
    require(n > 0, "cannot summarize an empty relation")

    var sampled = Array.emptyIntArray
    val picked = IndexedSeq.newBuilder[RangeFact]
    val pickedFacts = scala.collection.mutable.ArrayBuffer.empty[Fact]
    var latency = 0L
    for (round <- 1 to m) {
      // Enlarge the sample, then rebuild estimates on it.
      sampled = sampled ++ Array.fill(math.min(sampleSize, n))(rnd.nextInt(n))
      val sampleRel = rel.gather(sampled)
      val target = sampleRel.target
      val index = FactGen.build(sampleRel, math.min(maxFactDims, rel.numDims))
      val prior = sampleRel.targetMean
      // Greedy gain of each candidate fact given already-picked sentences,
      // estimated on the sample.
      val devs = Array.tabulate(sampleRel.numRows) { ri =>
        var d = math.abs(prior - target(ri))
        pickedFacts.foreach { f =>
          if (f.inScope(sampleRel, ri)) d = math.min(d, math.abs(f.typical - target(ri)))
        }
        d
      }
      var bestId = -1
      var bestGain = -1.0
      index.facts.indices.foreach { fid =>
        val f = index.facts(fid)
        var gain = 0.0
        var ri = 0
        while (ri < sampleRel.numRows) {
          if (f.inScope(sampleRel, ri)) {
            val g = devs(ri) - math.abs(f.typical - target(ri))
            if (g > 0) gain += g
          }
          ri += 1
        }
        if (gain > bestGain) { bestGain = gain; bestId = fid }
      }
      val f = index.facts(bestId)
      // 95% CI of the sample mean within scope.
      val inScope = target.indices.filter(f.inScope(sampleRel, _)).map(target)
      val mean = f.typical
      val variance =
        if (inScope.length < 2) 0.0
        else inScope.map(t => math.pow(t - mean, 2)).sum / (inScope.length - 1)
      val half = 1.96 * math.sqrt(variance / math.max(1, inScope.length))
      picked += RangeFact(f, mean - half, mean + half)
      pickedFacts += f
      if (round == 1) latency = System.nanoTime() - start
    }
    BaselineResult(picked.result(), latency, System.nanoTime() - start)
  }
}

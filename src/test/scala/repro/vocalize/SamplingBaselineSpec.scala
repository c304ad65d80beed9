package repro.vocalize

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.GreedySummarizer

/** Tests for the sampling-based vocalization baseline (§VIII-E). */
class SamplingBaselineSpec extends AnyFunSuite {

  private val rel = TestUtil.randomRelation(new Random(1), 3, 3, 500)

  test("produces the requested number of range facts") {
    val res = SamplingBaseline.summarize(rel, 2, 3, 100, seed = 5)
    assert(res.facts.length == 3)
  }

  test("ranges are well-formed (lo ≤ mid ≤ hi)") {
    val res = SamplingBaseline.summarize(rel, 2, 3, 100, seed = 5)
    res.facts.foreach { rf =>
      assert(rf.lo <= rf.mid + 1e-9 && rf.mid <= rf.hi + 1e-9)
    }
  }

  test("latency is at most total processing time") {
    val res = SamplingBaseline.summarize(rel, 2, 3, 100, seed = 5)
    assert(res.latencyNanos > 0)
    assert(res.latencyNanos <= res.totalNanos)
  }

  test("is deterministic per seed") {
    val a = SamplingBaseline.summarize(rel, 2, 3, 100, seed = 8)
    val b = SamplingBaseline.summarize(rel, 2, 3, 100, seed = 8)
    assert(a.facts.map(_.mid) == b.facts.map(_.mid))
  }

  test("utility with midpoints is non-negative and bounded by the base error") {
    // Note: sample-mean midpoints may legitimately beat exact-mean greedy
    // facts (the deviation-optimal typical value is the scope *median*), so
    // greedy utility is not an upper bound here — D(∅) is.
    val prior = rel.targetMean
    val res = SamplingBaseline.summarize(rel, 2, 3, 200, seed = 5)
    val u = res.utility(rel, prior)
    val baseError = repro.core.Eval.deviation(rel, Nil, prior)
    assert(u >= -1e-9)
    assert(u <= baseError + 1e-9)
    assert(GreedySummarizer.summarizeRelation(rel, 2, 3).speech.utility <= baseError)
  }

  test("larger samples tighten the confidence intervals on average") {
    val small = SamplingBaseline.summarize(rel, 2, 3, 30, seed = 9)
    val large = SamplingBaseline.summarize(rel, 2, 3, 400, seed = 9)
    def width(r: BaselineResult): Double =
      r.facts.map(f => f.hi - f.lo).sum / r.facts.length
    assert(width(large) <= width(small) + 1e-9)
  }

  test("seeded runs keep their picks, range bits and midpoint utility") {
    // Pinned scopes, raw bits of lo and hi, and raw bits of the midpoint
    // utility: how the baseline stores its sample must not change which
    // rows it draws, so Fig. 10 and Fig. 11 stay put.
    def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)
    val cases = Seq(
      (rel, 100, 5L, Seq(
        ("d2=v2_1", 0x404683dbd9f3a618L, 0x404e9cb91815a908L),
        ("d1=v1_1 ∧ d2=v2_0", 0x40422ed35506aa02L, 0x4049912caaf955feL),
        ("d1=v1_0 ∧ d2=v2_0", 0x40468a13d0459fa4L, 0x404e325df6d6d224L)),
        0x409326725e0ae218L),
      (TestUtil.randomRelationCont(new Random(3), 3, 4, 300), 40, 9L, Seq(
        ("d1=v1_0", 0x40476ec9f78478ccL, 0x4055050095800278L),
        ("d0=v0_2 ∧ d1=v1_1", 0x40245e38e37dc295L, 0x4043704342b6b06fL),
        ("d0=v0_1 ∧ d1=v1_1", 0x404446e322a1af72L, 0x4052138cea51aaf4L)),
        0x40924940df17bf34L))
    cases.foreach { case (r, sampleSize, seed, picks, utility) =>
      val res = SamplingBaseline.summarize(r, 2, 3, sampleSize, seed)
      assert(res.facts.map(rf => (rf.fact.describeScope(r), bits(rf.lo), bits(rf.hi))) == picks)
      assert(bits(res.utility(r, r.targetMean)) == utility)
    }
  }

  test("rejects empty relations") {
    intercept[IllegalArgumentException] {
      SamplingBaseline.summarize(rel.gather(Array.emptyIntArray), 2, 3, 10, 1)
    }
  }

  test("works on a zero-dimension relation (single scope)") {
    val sub = rel.copy(dimNames = IndexedSeq.empty,
      dimValues = IndexedSeq.empty,
      dimCols = Array.empty)
    val res = SamplingBaseline.summarize(sub, 0, 2, 50, seed = 2)
    assert(res.facts.nonEmpty)
  }
}

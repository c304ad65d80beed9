package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Exercises the Theorem 4 reduction: set cover → speech summarization.
  * A universe U is coverable by m subsets iff the constructed summarization
  * instance admits an m-fact speech with zero deviation.
  */
class NPHardnessSpec extends AnyFunSuite {

  /** Build the reduction instance: one row per universe element (target 1,
    * prior 0); one dimension column per subset with a marker value for
    * member rows; one candidate fact per subset restricting its column to
    * the marker with typical value 1.
    */
  private def reduction(universe: Seq[Int], subsets: Seq[Set[Int]])
      : (EncodedRelation, IndexedSeq[Fact]) = {
    val dimNames = subsets.indices.map(i => s"C$i").toIndexedSeq
    val raw = universe.map { e =>
      (subsets.indices.map(i => if (subsets(i).contains(e)) "in" else "out")
        .toIndexedSeq, 1.0)
    }
    val rel = TestUtil.fromLabels(dimNames, raw)
    val facts = subsets.indices.map { i =>
      val vi = rel.dimValues(i).indexOf("in")
      Fact(Array(i), Array(vi), 1.0, subsets(i).size.toLong)
    }.toIndexedSeq
    (rel, facts)
  }

  private def minDeviation(rel: EncodedRelation, facts: IndexedSeq[Fact], m: Int): Double =
    facts.indices.toList.combinations(m)
      .map(c => Eval.deviation(rel, c.map(facts), 0.0))
      .min

  private val universe = Seq(1, 2, 3, 4)
  private val subsets = Seq(Set(1, 2), Set(3, 4), Set(1, 3), Set(2))

  test("coverable with m=2 → zero-deviation speech exists") {
    val (rel, facts) = reduction(universe, subsets)
    assert(minDeviation(rel, facts, 2) == 0.0) // cover {1,2} ∪ {3,4}
  }

  test("not coverable with m=1 → deviation stays positive") {
    val (rel, facts) = reduction(universe, subsets)
    assert(minDeviation(rel, facts, 1) > 0.0)
  }

  test("uncoverable universe keeps positive deviation for any m") {
    val (rel, facts) = reduction(Seq(1, 2, 3), Seq(Set(1), Set(2)))
    assert(minDeviation(rel, facts, 2) > 0.0)
  }

  test("deviation counts exactly the uncovered elements") {
    val (rel, facts) = reduction(universe, subsets)
    // {1,2} and {1,3} leave element 4 uncovered → deviation 1.
    val dev = Eval.deviation(rel, Seq(facts(0), facts(2)), 0.0)
    assert(dev == 1.0)
  }

  test("each reduction fact covers exactly its subset's rows") {
    val (rel, facts) = reduction(universe, subsets)
    subsets.indices.foreach { i =>
      assert(rel.target.indices.count(facts(i).inScope(rel, _)) == subsets(i).size)
    }
  }

  test("greedy on the reduction solves easy covers optimally") {
    val (rel, facts) = reduction(universe, Seq(Set(1, 2), Set(3, 4)))
    // Manual greedy over the reduction facts (both needed for a full cover).
    val u = Eval.utility(rel, facts, 0.0)
    assert(u == 4.0) // all error removed
  }
}

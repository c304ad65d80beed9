package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Unit tests for the problem model (§II): facts, scopes, expectations,
  * deviation, and utility — all against hand-computed values on the
  * paper-style running-example grid.
  */
class ModelSpec extends AnyFunSuite {

  private val rel = TestUtil.paperGrid
  private val rows = 0 until rel.numRows
  private def fact(scope: Seq[(String, String)], typical: Double): Fact = {
    val dims = scope.map { case (d, _) => rel.dimNames.indexOf(d) }
    val values = scope.zip(dims).map { case ((_, v), di) => rel.dimValues(di).indexOf(v) }
    Fact(dims.toArray, values.toArray, typical, 0L)
  }

  test("encode builds sorted deterministic dictionaries") {
    assert(rel.dimNames == IndexedSeq("season", "region"))
    assert(rel.dimValues(0) == IndexedSeq("Summer", "Winter"))
    assert(rel.dimValues(1) == IndexedSeq("North", "South"))
  }

  test("encode preserves row count and targets") {
    assert(rel.numRows == 4)
    assert(rel.target.sorted.toSeq == Seq(10.0, 10.0, 10.0, 20.0))
  }

  test("cards reflect dictionary sizes") {
    assert(rel.cards == IndexedSeq(2, 2))
  }

  test("targetMean is the average target value") {
    assert(rel.targetMean == 12.5)
  }

  test("filter keeps only rows matching all predicates") {
    val winter = TestUtil.table(rel).relationFor("t", Seq("season" -> "Winter"))
    assert(winter.numRows == 2)
    assert(winter.target.forall(_ == 10.0))
  }

  test("filter with two predicates isolates one cell") {
    val cell = TestUtil.table(rel).relationFor("t", Seq("season" -> "Summer", "region" -> "South"))
    assert(cell.numRows == 1 && cell.target(0) == 20.0)
  }

  test("filter on non-matching predicate yields empty relation") {
    val none = TestUtil.table(rel).relationFor("t", Seq("season" -> "Summer", "season" -> "Winter"))
    assert(none.numRows == 0)
  }

  test("fact inScope matches rows consistent on restricted dims") {
    val f = fact(Seq("season" -> "Winter"), 10.0)
    assert(rows.count(f.inScope(rel, _)) == 2)
  }

  test("empty-scope fact covers every row") {
    val f = fact(Nil, 12.5)
    assert(rows.forall(f.inScope(rel, _)))
  }

  test("two-dim fact covers exactly its cell") {
    val f = fact(Seq("season" -> "Summer", "region" -> "South"), 20.0)
    assert(rows.count(f.inScope(rel, _)) == 1)
  }

  test("describeScope renders 'overall' for the empty scope") {
    assert(fact(Nil, 1.0).describeScope(rel) == "overall")
  }

  test("describeScope joins restricted dimensions") {
    val f = fact(Seq("season" -> "Winter", "region" -> "South"), 1.0)
    assert(f.describeScope(rel) == "season=Winter ∧ region=South")
  }

  test("expectation equals prior when no fact is in scope") {
    val f = fact(Seq("season" -> "Winter"), 10.0)
    val summerSouth = rel.target.indexOf(20.0)
    assert(Eval.expectation(Seq(f), rel, summerSouth, 0.0) == 0.0)
  }

  test("expectation equals typical value of the single in-scope fact when closer") {
    val f = fact(Seq("season" -> "Winter"), 12.0)
    val winterRow = rows.find(f.inScope(rel, _)).get
    assert(Eval.expectation(Seq(f), rel, winterRow, 0.0) == 12.0)
  }

  test("expectation picks value closest to the true target among candidates (Def. 4)") {
    val far = fact(Seq("season" -> "Summer"), 100.0)
    val near = fact(Seq("region" -> "South"), 18.0)
    val summerSouth = rel.target.indexOf(20.0)
    assert(Eval.expectation(Seq(far, near), rel, summerSouth, 0.0) == 18.0)
  }

  test("prior is always a candidate, even with in-scope facts (Def. 4)") {
    val f = fact(Seq("season" -> "Summer"), 100.0)
    val cell = fact(Seq("season" -> "Summer", "region" -> "North"), 0.0)
    val summerNorth = rows.find(cell.inScope(rel, _)).get
    // prior 9 is closer to the true 10 than the fact's 100
    assert(Eval.expectation(Seq(f), rel, summerNorth, 9.0) == 9.0)
  }

  test("D(∅) under zero prior sums absolute targets") {
    assert(Eval.deviation(rel, Nil, 0.0) == 50.0)
  }

  test("deviation with a perfect cell fact removes that cell's error") {
    val f = fact(Seq("season" -> "Summer", "region" -> "South"), 20.0)
    assert(Eval.deviation(rel, Seq(f), 0.0) == 30.0)
  }

  test("utility of the overall-average fact on the grid is 35") {
    val f = fact(Nil, 12.5)
    assert(Eval.utility(rel, Seq(f), 0.0) == 35.0)
  }

  test("utility of season facts on the grid is 20 each") {
    assert(Eval.utility(rel, Seq(fact(Seq("season" -> "Summer"), 15.0)), 0.0) == 20.0)
    assert(Eval.utility(rel, Seq(fact(Seq("season" -> "Winter"), 10.0)), 0.0) == 20.0)
  }

  test("utility of the optimal 2-fact speech is 42.5") {
    val facts = Seq(fact(Nil, 12.5),
      fact(Seq("season" -> "Summer", "region" -> "South"), 20.0))
    assert(Eval.utility(rel, facts, 0.0) == 42.5)
  }

  test("utility is zero for an empty speech") {
    assert(Eval.utility(rel, Nil, 0.0) == 0.0)
  }

  test("utility never exceeds D(∅)") {
    val facts = Seq(fact(Nil, 12.5), fact(Seq("season" -> "Winter"), 10.0),
      fact(Seq("region" -> "South"), 15.0))
    assert(Eval.utility(rel, facts, 0.0) <= Eval.deviation(rel, Nil, 0.0))
  }
}

package repro.core

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Tests for candidate-fact enumeration (§III, Thm 9). */
class FactGenSpec extends AnyFunSuite {

  private val rel = TestUtil.paperGrid

  test("patterns enumerates subsets up to the size bound, smallest first") {
    val ps = FactGen.patterns(3, 2).map(_.toSeq)
    assert(ps == Seq(Seq(), Seq(0), Seq(1), Seq(2), Seq(0, 1), Seq(0, 2), Seq(1, 2)))
  }

  test("patterns with maxSize 0 yields only the empty pattern") {
    assert(FactGen.patterns(4, 0).map(_.toSeq) == Seq(Seq()))
  }

  test("patterns with maxSize ≥ d yields the full power set") {
    assert(FactGen.patterns(3, 3).length == 8)
  }

  test("grid relation yields 9 facts with width ≤ 2") {
    // 1 overall + 2 seasons + 2 regions + 4 cells
    val index = FactGen.build(rel, 2)
    assert(index.numFacts == 9)
  }

  test("grid relation yields 5 facts with width ≤ 1") {
    assert(FactGen.build(rel, 1).numFacts == 5)
  }

  test("overall fact has the relation mean as typical value") {
    val index = FactGen.build(rel, 2)
    val overall = index.facts.find(_.dims.isEmpty).get
    assert(overall.typical == 12.5 && overall.support == 4)
  }

  test("single-dim facts average over their scope") {
    val index = FactGen.build(rel, 2)
    val summer = index.facts.find(f =>
      f.describeScope(rel) == "season=Summer").get
    assert(summer.typical == 15.0 && summer.support == 2)
  }

  test("two-dim facts are exact cell averages") {
    val index = FactGen.build(rel, 2)
    val cell = index.facts.find(_.describeScope(rel) == "season=Summer ∧ region=South").get
    assert(cell.typical == 20.0 && cell.support == 1)
  }

  test("only value combinations present in the data yield facts") {
    // Grid without the (Winter, South) cell: 3 cells → 1+2+2+3 = 8 facts.
    val sparse = TestUtil.grid(Map(
      ("Summer", "North") -> Seq(1.0), ("Summer", "South") -> Seq(2.0),
      ("Winter", "North") -> Seq(3.0)))
    assert(FactGen.build(sparse, 2).numFacts == 8)
  }

  test("factIdFor returns the fact whose scope contains the row") {
    val index = FactGen.build(rel, 2)
    rel.target.indices.foreach { ri =>
      (0 until index.numPatterns).foreach { pi =>
        val f = index.facts(index.factIdFor(pi, ri))
        assert(f.inScope(rel, ri))
        assert(f.dims.toSeq == index.patterns(pi).toSeq)
      }
    }
  }

  test("groupSize sums to the total fact count") {
    val index = FactGen.build(rel, 2)
    assert((0 until index.numPatterns).map(index.groupSize).sum == index.numFacts)
  }

  test("groupFacts partitions the fact ids") {
    val index = FactGen.build(rel, 2)
    val all = (0 until index.numPatterns).flatMap(index.groupFacts)
    assert(all.sorted == index.facts.indices)
  }

  test("isSpecialization holds exactly for pattern supersets") {
    val index = FactGen.build(rel, 2)
    val empty = index.patterns.indexWhere(_.isEmpty)
    val season = index.patterns.indexWhere(_.toSeq == Seq(0))
    val both = index.patterns.indexWhere(_.toSeq == Seq(0, 1))
    assert(index.isSpecialization(empty, season))
    assert(index.isSpecialization(season, both))
    assert(index.isSpecialization(season, season))
    assert(!index.isSpecialization(both, season))
  }

  test("fact support sums match row count per group") {
    val rnd = new Random(42)
    val r = TestUtil.randomRelation(rnd, 3, 4, 200)
    val index = FactGen.build(r, 2)
    (0 until index.numPatterns).foreach { pi =>
      val total = index.groupFacts(pi).map(index.facts(_).support).sum
      assert(total == r.numRows)
    }
  }

  test("typical values equal scope means on random relations") {
    val rnd = new Random(7)
    (0 until 20).foreach { i =>
      val r = TestUtil.randomRelation(new Random(i), 3, 3, 50)
      val index = FactGen.build(r, 2)
      index.facts.foreach { f =>
        val inScope = r.target.indices.filter(f.inScope(r, _)).map(r.target)
        assert(inScope.length == f.support)
        val mean = inScope.sum / inScope.length
        assert(math.abs(mean - f.typical) < 1e-9)
      }
      assert(rnd.nextInt(2) >= 0) // keep rnd used
    }
  }

  test("fact count matches closed form on a full grid (Thm 9 shape)") {
    // Full 2×2 grid: 1 + (2+2) + 4 = 9; with a 3-value season dim fully
    // crossed with 2 regions: 1 + (3+2) + 6 = 12.
    val r = TestUtil.grid(Map(
      ("A", "N") -> Seq(1.0), ("A", "S") -> Seq(2.0),
      ("B", "N") -> Seq(3.0), ("B", "S") -> Seq(4.0),
      ("C", "N") -> Seq(5.0), ("C", "S") -> Seq(6.0)))
    assert(FactGen.build(r, 2).numFacts == 12)
  }

  test("deterministic fact ids across rebuilds") {
    val rnd = new Random(3)
    val r = TestUtil.randomRelation(rnd, 4, 3, 100)
    val a = FactGen.build(r, 2)
    val b = FactGen.build(r, 2)
    assert(a.facts.map(_.describeScope(r)) == b.facts.map(_.describeScope(r)))
    assert(a.facts.map(_.typical) == b.facts.map(_.typical))
  }

  test("single-row relation yields one fact per pattern") {
    val one = TestUtil.grid(Map(("S", "N") -> Seq(5.0)))
    val index = FactGen.build(one, 2)
    assert(index.numFacts == index.numPatterns)
    assert(index.facts.forall(_.typical == 5.0))
  }
}

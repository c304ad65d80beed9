package repro.system

import scala.util.Random
import repro.{Oracle, SparkSpec, TestUtil}
import repro.data.VoiceData

/** Tests for query enumeration (§III, Thm 10). */
class ProblemGeneratorSpec extends SparkSpec {

  private lazy val rel = TestUtil.paperGrid
  private lazy val df = TestUtil.toDf(spark, rel)
  private lazy val table = Encoding.fromDataFrame(df, Seq("season", "region"), Seq("t"))
  private val spec = VoiceData.DatasetSpec("grid", Seq("season", "region"),
    Seq("t"), 4, (_, _, _) => df)

  test("full 2×2 grid with maxQueryLen 2 yields 9 problems per target") {
    // empty + 2 seasons + 2 regions + 4 cells
    val probs = ProblemGenerator.problems(table, SummarizationConfig(spec))
    assert(probs.length == 9)
  }

  test("maxQueryLen 1 drops two-predicate problems") {
    val probs = ProblemGenerator.problems(table,
      SummarizationConfig(spec, maxQueryLen = 1))
    assert(probs.length == 5)
    assert(probs.forall(_.predicates.length <= 1))
  }

  test("maxQueryLen 0 yields only the overall problem") {
    val probs = ProblemGenerator.problems(table,
      SummarizationConfig(spec, maxQueryLen = 0))
    assert(probs.map(_.predicates) == Seq(Seq.empty))
  }

  test("problem keys are unique") {
    val probs = ProblemGenerator.problems(table, SummarizationConfig(spec))
    assert(probs.map(_.key).distinct.length == probs.length)
  }

  test("every problem's subset is non-empty on the full grid") {
    val probs = ProblemGenerator.problems(table, SummarizationConfig(spec))
    probs.foreach { p =>
      assert(table.relationFor(p.target, p.predicates).numRows > 0, p.key)
    }
  }

  test("only value combinations present in the data are enumerated") {
    val sparse = TestUtil.grid(Map(
      ("Summer", "North") -> Seq(1.0), ("Winter", "South") -> Seq(2.0)))
    val sdf = TestUtil.toDf(spark, sparse)
    val st = Encoding.fromDataFrame(sdf, Seq("season", "region"), Seq("t"))
    val sspec = spec.copy(gen = (_, _, _) => sdf)
    val probs = ProblemGenerator.problems(st, SummarizationConfig(sspec))
    // empty + 2 seasons + 2 regions + 2 observed cells = 7
    assert(probs.length == 7)
  }

  test("problem count multiplies with the number of targets (Thm 10)") {
    val two = spec.copy(targets = Seq("t", "t"))
    val probs = ProblemGenerator.problems(table, SummarizationConfig(two))
    assert(probs.length == 18)
  }

  test("enumeration equals SELECT DISTINCT per dimension subset") {
    val rel = TestUtil.randomRelation(new Random(7), 3, 3, 12)
    val dims = rel.dimNames
    val twoTargets = spec.copy(dims = dims, targets = Seq("t", "u"))
    val probs = ProblemGenerator.problems(TestUtil.table(rel, IndexedSeq("t", "u")),
      SummarizationConfig(twoTargets, maxQueryLen = 2))
    val subsets = dims.indices.toSet.subsets().filter(_.size <= 2).toSeq
    // The 12 rows leave some value combinations out.
    assert(probs.length < 2 * subsets.map(_.toSeq.map(rel.cards).product).sum)
    val distinct = subsets.map(_.map(dims)).map { s =>
      val cols = dims.map(d => if (s(d)) d else s"CAST(NULL AS VARCHAR) AS $d")
      s"SELECT DISTINCT ${cols.mkString(", ")} FROM rel"
    }.mkString(" UNION ALL ")
    Oracle.assertEquivalent(
      probs.map(p => p.target +: dims.map(d => p.predicates.toMap.getOrElse(d, null))),
      s"SELECT tg.target, q.* FROM (VALUES ('t'), ('u')) tg(target) CROSS JOIN ($distinct) q",
      Oracle.relation("rel", rel))
  }

  test("problem key is order-insensitive in predicates") {
    val k1 = Problem("t", Seq("a" -> "1", "b" -> "2")).key
    val k2 = Problem("t", Seq("b" -> "2", "a" -> "1")).key
    assert(k1 == k2)
  }

  test("problem keys distinguish targets and predicates") {
    assert(Problem("t1", Seq("a" -> "1")).key != Problem("t2", Seq("a" -> "1")).key)
    assert(Problem("t1", Seq("a" -> "1")).key != Problem("t1", Seq("a" -> "2")).key)
  }
}

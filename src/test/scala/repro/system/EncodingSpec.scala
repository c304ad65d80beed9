package repro.system

import scala.util.Random
import repro.{SparkSpec, TestUtil}
import repro.data.VoiceData

/** Tests for the multi-target table encoding used by the batch job. */
class EncodingSpec extends SparkSpec {

  private lazy val rel = TestUtil.paperGrid
  private lazy val df = TestUtil.toDf(spark, rel)
  private lazy val table = Encoding.fromDataFrame(df, Seq("season", "region"), Seq("t"))

  test("encoding preserves row count") {
    assert(table.numRows == 4)
  }

  test("dictionaries are sorted and complete") {
    assert(table.dimValues(0) == IndexedSeq("Summer", "Winter"))
    assert(table.dimValues(1) == IndexedSeq("North", "South"))
  }

  test("relationFor with no predicates reproduces the full relation") {
    val r = table.relationFor("t", Nil)
    assert(r.numRows == 4)
    assert(r.numDims == 2)
    assert(r.target.sorted.toSeq == Seq(10.0, 10.0, 10.0, 20.0))
  }

  test("relationFor filters by predicates and projects them away") {
    val r = table.relationFor("t", Seq("season" -> "Winter"))
    assert(r.numRows == 2)
    assert(r.dimNames == IndexedSeq("region"))
    assert(r.target.forall(_ == 10.0))
  }

  test("relationFor with two predicates leaves no free dims") {
    val r = table.relationFor("t", Seq("season" -> "Summer", "region" -> "South"))
    assert(r.numRows == 1 && r.numDims == 0)
    assert(r.target(0) == 20.0)
  }

  test("relationFor on a value absent from the data yields empty") {
    val r = table.relationFor("t", Seq("season" -> "Monsoon"))
    assert(r.numRows == 0)
  }

  test("posting-list relationFor equals a plain scan for 0, 1 and 2 predicates") {
    val rnd = new Random(11)
    val used = IndexedSeq(3, 4, 2)
    // Dimension b's dictionary holds a fifth value that no row takes.
    val dicts = IndexedSeq(3, 5, 2).zipWithIndex.map { case (c, i) => (0 until c).map(v => s"v${i}_$v") }
    // Drawn row by row, stored column by column.
    val t = EncodedTable(IndexedSeq("a", "b", "c"), dicts, IndexedSeq("x", "y"),
      Array.fill(200)(Array.tabulate(3)(i => rnd.nextInt(used(i)))).transpose,
      Array.fill(200)(Array.fill(2)(rnd.nextDouble())).transpose)
    def scan(target: String, preds: Seq[(String, String)]) = {
      val ti = t.targetNames.indexOf(target)
      val ps = preds.map { case (d, v) => val di = t.dimNames.indexOf(d); (di, t.dimValues(di).indexOf(v)) }
      val free = t.dimNames.indices.filterNot(i => ps.exists(_._1 == i))
      val rows = (0 until t.numRows)
        .filter(ri => ps.forall { case (d, v) => t.dimCols(d)(ri) == v })
        .map(ri => (free.map(t.dimCols(_)(ri)), t.targetCols(ti)(ri)))
      (free.map(t.dimNames), free.map(t.dimValues), rows)
    }
    val singles = for (d <- t.dimNames.indices; v <- dicts(d)) yield Seq(t.dimNames(d) -> v)
    val pairs = for (Seq(a) <- singles; Seq(b) <- singles if a._1 < b._1) yield Seq(a, b)
    for (target <- t.targetNames; preds <- Seq(Nil) ++ singles ++ pairs) {
      val r = t.relationFor(target, preds)
      val got = (r.dimNames, r.dimValues,
        (0 until r.numRows).map(ri => (r.dimCols.toSeq.map(_(ri)), r.target(ri))))
      assert(got == scan(target, preds), s"$target $preds")
    }
  }

  test("unknown target is rejected") {
    intercept[IllegalArgumentException] {
      table.relationFor("nope", Nil)
    }
  }

  test("valueIdx resolves known values and rejects unknown ones") {
    assert(table.valueIdx("season", "Winter").contains(1))
    assert(table.valueIdx("season", "Monsoon").isEmpty)
  }

  test("multi-target tables carry every target per row") {
    val spec = VoiceData.AcsNY
    val t = Encoding.fromDataFrame(spec.df(spark, 0.01), spec.dims, spec.targets)
    assert(t.targetNames == spec.targets.toIndexedSeq)
    assert(t.targetCols.length == spec.targets.length)
    assert(t.targetCols.forall(_.length == t.numRows))
    val visual = t.relationFor("visual", Nil)
    val hearing = t.relationFor("hearing", Nil)
    assert(visual.numRows == hearing.numRows)
  }

  test("relation means match DataFrame aggregates") {
    val spec = VoiceData.AcsNY
    val df2 = spec.df(spark, 0.01).cache()
    val t = Encoding.fromDataFrame(df2, spec.dims, spec.targets)
    val sparkMean = df2.agg(org.apache.spark.sql.functions.avg("visual"))
      .collect()(0).getDouble(0)
    assert(math.abs(t.relationFor("visual", Nil).targetMean - sparkMean) < 1e-9)
  }
}

package repro.core.df

import org.scalatest.exceptions.TestFailedException
import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, TestUtil}
import repro.core.{EncodedRelation, FactGen}
import Relational._

/** Fact generation (§III) and the row filter of query predicates against the
  * union of GROUP BYs and the match join, run on DuckDB.
  */
class DfFactsSpec extends AnyFunSuite {

  private def forEachRelation(check: EncodedRelation => Unit): Unit =
    relations.foreach { case (name, rel) => withClue(s"$name: ")(check(rel)) }

  /** Local facts with `k` restricted dimensions against the GROUP BYs of size `k`. */
  private def checkScopeSize(k: Int): Unit = forEachRelation { rel =>
    val index = FactGen.build(rel, maxFactDims)
    Oracle.assertEquivalent(factRows(rel, index.facts.filter(_.dims.length == k)),
      factsSql(rel.dimNames, scopes(rel.dimNames, k to k)), Oracle.relation("rel", rel))
  }

  test("oracle numbers match within 1e-9, not beyond") {
    // 0.1234565 and a value 1e-12 above it round to different 6-digit strings.
    val x = Oracle.Table("x", Seq("v" -> "DOUBLE"), Seq(Seq(0.1234565)))
    Oracle.assertEquivalent(Seq(Seq(0.1234565 + 1e-12)), "SELECT v FROM x", x)
    assertThrows[TestFailedException](
      Oracle.assertEquivalent(Seq(Seq(0.1234566)), "SELECT v FROM x", x))
    assertThrows[TestFailedException](
      Oracle.assertEquivalent(Seq(Seq(0.1234565), Seq(0.1234565)), "SELECT v FROM x", x))
  }

  test("facts DF has one row per local fact") {
    forEachRelation { rel =>
      Oracle.assertEquivalent(Seq(Seq(FactGen.build(rel, maxFactDims).numFacts)),
        s"SELECT count(*) FROM (${factsSql(rel.dimNames, scopes(rel.dimNames))})",
        Oracle.relation("rel", rel))
    }
  }

  test("facts DF typical values match the local index") {
    val rel = TestUtil.paperGrid
    Oracle.assertEquivalent(factRows(FactGen.build(rel, maxFactDims)),
      factsSql(rel.dimNames, scopes(rel.dimNames)), Oracle.relation("rel", rel))
  }

  test("single-dim group-by averages agree with DuckDB") {
    checkScopeSize(1)
  }

  test("two-dim group-by averages agree with DuckDB") {
    checkScopeSize(2)
  }

  test("overall average agrees with DuckDB") {
    checkScopeSize(0)
    forEachRelation { rel =>
      Oracle.assertEquivalent(Seq(Seq(rel.targetMean)), s"SELECT $meanPrior",
        Oracle.relation("rel", rel))
    }
  }

  test("single-fact utility join agrees with DuckDB (Alg. 1 line 6)") {
    forEachRelation { rel =>
      val index = FactGen.build(rel, maxFactDims)
      val u1 = new Array[Double](index.numFacts)
      val dev0 = index.priorDeviations(rel.targetMean)
      (0 until index.numPatterns).foreach(index.gains(_, dev0, u1))
      Oracle.assertEquivalent(
        index.facts.indices.map(fid => scopeCells(rel, index.facts(fid)) :+ u1(fid)),
        gainsSql(rel.dimNames, meanPrior),
        Oracle.relation("rel", rel), speech(rel, Nil))
    }
  }

  test("matchCond pairs each row with facts covering it") {
    forEachRelation { rel =>
      val index = FactGen.build(rel, maxFactDims)
      // One fact per scope pattern covers each row.
      val pairs = for (ri <- rel.target.indices; pi <- 0 until index.numPatterns)
        yield ri.toLong +: scopeCells(rel, index.facts(index.factIdFor(pi, ri)))
      Oracle.assertEquivalent(pairs,
        s"""SELECT r.rid, ${scopeCols(rel.dimNames, "f")}
           |FROM (${factsSql(rel.dimNames, scopes(rel.dimNames))}) f
           |JOIN rel r ON ${matchCond(rel.dimNames, "f", "r")}""".stripMargin,
        Oracle.relation("rel", rel))
    }
  }

  test("facts on random relation match local index") {
    relations.filter(_._1 != "paperGrid").foreach { case (name, rel) =>
      withClue(s"$name: ") {
        Oracle.assertEquivalent(factRows(FactGen.build(rel, maxFactDims)),
          factsSql(rel.dimNames, scopes(rel.dimNames)), Oracle.relation("rel", rel))
      }
    }
  }

  test("scopeCond selects exactly the scope rows") {
    forEachRelation { rel =>
      val table = TestUtil.table(rel)
      val dims = rel.dimNames
      // Every one- and two-predicate query; rows carry the query's position.
      val wheres = dims.indices.toSet.subsets().filter(s => s.size == 1 || s.size == 2)
        .flatMap(s => s.toSeq.sorted.foldLeft(Seq(Seq.empty[(String, String)])) { (acc, d) =>
          acc.flatMap(p => rel.dimValues(d).map(v => p :+ (dims(d) -> v)))
        }).map(p => p -> p.map { case (d, v) => s"$d = '$v'" }.mkString(" AND ")).toSeq
        .zipWithIndex
      // relationFor drops the predicate dimensions; both sides show them as NULL.
      Oracle.assertEquivalent(
        wheres.flatMap { case ((preds, _), q) =>
          val sub = table.relationFor("t", preds)
          sub.target.indices.map(ri => (q +: dims.map { d =>
            val i = sub.dimNames.indexOf(d)
            if (i < 0) null else sub.dimValues(i)(sub.dimCols(i)(ri))
          }) :+ sub.target(ri))
        },
        wheres.map { case ((preds, where), q) =>
          val cols = dims.map(d =>
            if (preds.exists(_._1 == d)) s"CAST(NULL AS VARCHAR) AS $d" else d)
          s"SELECT $q, ${cols.mkString(", ")}, t FROM rel WHERE $where"
        }.mkString("\nUNION ALL\n"),
        Oracle.relation("rel", rel))
    }
  }

  test("filtered subset aggregation agrees with DuckDB (query predicate path)") {
    forEachRelation { rel =>
      val table = TestUtil.table(rel)
      for (d <- rel.dimNames.indices; v <- rel.dimValues(d)) {
        val sub = table.relationFor("t", Seq(rel.dimNames(d) -> v))
        withClue(s"${rel.dimNames(d)}=$v: ") {
          Oracle.assertEquivalent(factRows(FactGen.build(sub, maxFactDims)),
            factsSql(sub.dimNames, scopes(sub.dimNames), s"${rel.dimNames(d)} = '$v'"),
            Oracle.relation("rel", rel))
        }
      }
    }
  }
}

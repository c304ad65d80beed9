package repro.core.df

import scala.util.Random
import repro.{Oracle, TestUtil}
import repro.core.{EncodedRelation, Fact, FactIndex}

/** The paper's relational form of Alg. 1–3 (§IV-A) as DuckDB SQL, the
  * independent side of the specs in this package: facts as a union of
  * GROUP BYs, one per scope pattern, and utilities through the match join
  * `F.d IS NULL OR F.d = R.d`. Queries read the relation as table `rel`
  * (`Oracle.relation`) and a speech as table `speech` (`speech`). A prior
  * is an SQL expression, e.g. `0.0` or `meanPrior`.
  */
object Relational {

  val maxFactDims = 2

  /** The paper grid and seeded random relations of 3 dimensions. */
  val relations: Seq[(String, EncodedRelation)] =
    ("paperGrid" -> TestUtil.paperGrid) +: (0 until 3).flatMap { seed => Seq(
      s"randomRelation($seed)" -> TestUtil.randomRelation(new Random(seed), 3, 3, 40),
      s"randomRelationCont($seed)" ->
        TestUtil.randomRelationCont(new Random(seed + 100), 3, 3, 40))
    }

  /** The random relations with continuous targets (ties improbable). */
  def continuous: Seq[(String, EncodedRelation)] =
    relations.filter(_._1.startsWith("randomRelationCont"))

  val meanPrior = "(SELECT avg(t) FROM rel)"

  /** Scope patterns with a size in `sizes`, as dimension names, enumerated
    * here rather than by `FactGen.patterns`.
    */
  def scopes(dims: Seq[String], sizes: Range = 0 to maxFactDims): Seq[Seq[String]] =
    dims.toSet.subsets().filter(s => sizes.contains(s.size)).map(s => dims.filter(s)).toSeq

  /** The fact table over the rows satisfying `where`: one GROUP BY per scope,
    * with columns `f_<dim>` (NULL = unrestricted), `typical` and `support`.
    */
  def factsSql(dims: Seq[String], scopes: Seq[Seq[String]], where: String = "TRUE"): String =
    scopes.map { s =>
      val cols = dims.map(d =>
        if (s.contains(d)) s"$d AS f_$d" else s"CAST(NULL AS VARCHAR) AS f_$d")
      val groupBy = if (s.isEmpty) "" else s"GROUP BY ${s.mkString(", ")}"
      s"SELECT ${cols.mkString(", ")}, avg(t) AS typical, count(*) AS support " +
        s"FROM rel WHERE $where $groupBy HAVING count(*) > 0"
    }.mkString("\nUNION ALL\n")

  /** The match condition M of §IV-A between fact alias `f` and row alias `r`. */
  def matchCond(dims: Seq[String], f: String, r: String): String =
    dims.map(d => s"($f.f_$d IS NULL OR $f.f_$d = $r.$d)").mkString(" AND ")

  /** The scope columns of fact alias `f`. */
  def scopeCols(dims: Seq[String], f: String): String = dims.map(d => s"$f.f_$d").mkString(", ")

  /** A fact's scope as one cell per dimension: its value label, or null. */
  def scopeCells(rel: EncodedRelation, f: Fact): Seq[Any] =
    rel.dimNames.indices.map { d =>
      val i = f.dims.indexOf(d)
      if (i < 0) null else rel.dimValues(d)(f.values(i))
    }

  /** Scope cells, typical value and support of each fact in `facts`. */
  def factRows(rel: EncodedRelation, facts: Seq[Fact]): Seq[Seq[Any]] =
    facts.map(f => scopeCells(rel, f) :+ f.typical :+ f.support)

  def factRows(index: FactIndex): Seq[Seq[Any]] = factRows(index.rel, index.facts)

  /** `facts` as table `name`, with columns `f_<dim>` and `typical`. */
  def speech(rel: EncodedRelation, facts: Seq[Fact], name: String = "speech"): Oracle.Table =
    Oracle.Table(name,
      rel.dimNames.map(d => s"f_$d" -> "VARCHAR") :+ ("typical" -> "DOUBLE"),
      facts.map(f => scopeCells(rel, f) :+ f.typical))

  /** Per row: `rid`, `t`, `dev0` = |t − prior| and `dev`, the deviation
    * after hearing the facts of `speech`: the minimum of dev0 and
    * |typical − t| over the speech facts whose scope contains the row.
    */
  private def devSql(dims: Seq[String], prior: String): String =
    s"""SELECT r.rid, r.t, abs(r.t - $prior) AS dev0,
       |       least(abs(r.t - $prior),
       |             coalesce(min(abs(s.typical - r.t)), abs(r.t - $prior))) AS dev
       |FROM rel r LEFT JOIN speech s ON ${matchCond(dims, "s", "r")}
       |GROUP BY r.rid, r.t""".stripMargin

  /** One row: D(∅) and the utility D(∅) − D(F) of the facts in `speech`. */
  def errorsSql(dims: Seq[String], prior: String): String =
    s"SELECT sum(dev0), sum(dev0) - sum(dev) FROM (${devSql(dims, prior)}) d"

  /** Each fact's utility gain when added to the facts in `speech` (Alg. 1
    * line 6 when `speech` is empty): columns `f_<dim>` and `gain`.
    */
  def gainsSql(dims: Seq[String], prior: String): String =
    s"""SELECT ${scopeCols(dims, "f")},
       |       sum(greatest(0.0, d.dev - abs(f.typical - d.t))) AS gain
       |FROM (${factsSql(dims, scopes(dims))}) f
       |JOIN rel r ON ${matchCond(dims, "f", "r")}
       |JOIN (${devSql(dims, prior)}) d ON d.rid = r.rid
       |GROUP BY ${scopeCols(dims, "f")}""".stripMargin

  /** One row: the largest utility of any `m` distinct facts, by enumerating
    * every m-subset of the fact table as an m-way self-join.
    */
  def bestSql(dims: Seq[String], m: Int, prior: String): String = {
    val fs = (1 to m).map(i => s"f$i")
    val joins = fs.zipWithIndex.map { case (f, i) =>
      if (i == 0) s"f $f" else s"JOIN f $f ON ${fs(i - 1)}.fid < $f.fid"
    }
    val devs = fs.map(f =>
      s"CASE WHEN ${matchCond(dims, f, "r")} THEN abs($f.typical - r.t) ELSE r.dev0 END")
    // Fact ids from an ordering on the scope, so every reference to `f`
    // numbers the facts alike.
    s"""WITH f AS (SELECT row_number() OVER (ORDER BY ${scopeCols(dims, "x")}) AS fid, *
       |           FROM (${factsSql(dims, scopes(dims))}) x)
       |SELECT max(u) FROM (
       |  SELECT sum(r.dev0 - least(r.dev0, ${devs.mkString(", ")})) AS u
       |  FROM ${joins.mkString(" ")}
       |  CROSS JOIN (SELECT *, abs(t - $prior) AS dev0 FROM rel) r
       |  GROUP BY ${fs.map(f => s"$f.fid").mkString(", ")})""".stripMargin
  }
}

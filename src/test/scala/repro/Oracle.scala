package repro

import java.sql.DriverManager
import org.scalatest.Assertions
import repro.core.EncodedRelation

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(expected, sql, tables)`` loads ``tables`` into an
  * in-process DuckDB (via JDBC), runs ``sql`` and asserts that its rows
  * equal ``expected`` as a multiset. Cells compare column by column in
  * select order: strings and NULLs exactly, numbers within a relative
  * tolerance of 1e-9 (absolute below 1). Local code sums in row order and
  * DuckDB in its own, so equal sums may differ in the last bits. This
  * catches wrong results — "it ran" is not "it is correct".
  */
object Oracle {

  /** Rows to load as table `name`; `columns` pairs each column name with its
    * SQL type, and a null value loads as NULL. Keep tables small: this is an
    * oracle, not a bench.
    */
  final case class Table(name: String, columns: Seq[(String, String)], rows: Seq[Seq[Any]])

  /** `rel` as table `name`: the row index `rid`, one VARCHAR column per
    * dimension holding value labels, and the DOUBLE target `t`.
    */
  def relation(name: String, rel: EncodedRelation): Table =
    Table(name,
      ("rid" -> "BIGINT") +: rel.dimNames.map(_ -> "VARCHAR") :+ ("t" -> "DOUBLE"),
      (0 until rel.numRows).map { ri =>
        (ri.toLong +: rel.dimNames.indices.map(d => rel.dimValues(d)(rel.dimCols(d)(ri)))) :+
          rel.target(ri)
      })

  private val tolerance = 1e-9

  private def cellsMatch(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Double, y: Double) =>
      math.abs(x - y) <= tolerance * math.max(1.0, math.max(math.abs(x), math.abs(y)))
    case _ => a == b
  }

  /** Numbers as Double, so that BIGINT, HUGEINT and DOUBLE compare alike;
    * rows sorted by their strings, then by their numbers.
    */
  private def canon(rows: Seq[Seq[Any]]): Seq[Seq[Any]] =
    rows.map(_.map {
      case n: java.lang.Number => n.doubleValue
      case x => x
    }).sortBy(r => (
      r.map { case s: String => s; case null => "∅"; case _ => "" }.mkString("\u0001"),
      r.collect { case d: Double => d }
    ))(Ordering.Tuple2(Ordering.String,
      Ordering.Implicits.seqOrdering[Seq, Double](Ordering.Double.TotalOrdering)))

  def assertEquivalent(expected: Seq[Seq[Any]], sql: String, tables: Table*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for (t <- tables) {
        conn.createStatement.execute(
          s"CREATE TABLE ${t.name} (${t.columns.map { case (c, ty) => s"$c $ty" }.mkString(", ")})")
        val ps = conn.prepareStatement(
          s"INSERT INTO ${t.name} VALUES (${t.columns.map(_ => "?").mkString(", ")})")
        t.rows.foreach { r =>
          r.zipWithIndex.foreach { case (v, i) => ps.setObject(i + 1, v) }
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs = conn.createStatement.executeQuery(sql)
      val width = rs.getMetaData.getColumnCount
      val got = canon(Iterator.continually(rs).takeWhile(_.next())
        .map(r => (1 to width).map(r.getObject)).toSeq)
      val exp = canon(expected)
      val mismatch = got.zipAll(exp, Nil, Nil).find { case (g, e) =>
        g.length != e.length || g.zip(e).exists { case (a, b) => !cellsMatch(a, b) }
      }
      if (got.length != exp.length || mismatch.nonEmpty)
        Assertions.fail(s"result mismatch (duckdb ${got.length} vs local ${exp.length} rows): " +
          s"first differing pair duckdb=${mismatch.map(_._1)} local=${mismatch.map(_._2)}")
    } finally conn.close()
  }
}

package repro

import scala.util.Random
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.EncodedRelation
import repro.system.{EncodedTable, Encoding}

/** Shared helpers for building small relations in tests. */
object TestUtil {

  /** The hand-checked running example used across core tests, modelled on
    * the paper's Fig. 1 grid: 2 seasons × 2 regions, one row per cell.
    *
    * Cell targets: (Summer,North)=10, (Summer,South)=20, (Winter,North)=10,
    * (Winter,South)=10. With prior 0: D(∅)=50; the optimal 2-fact speech is
    * {overall-avg(12.5), (Summer,South)=20} with utility 42.5.
    */
  def paperGrid: EncodedRelation = grid(Map(
    ("Summer", "North") -> Seq(10.0),
    ("Summer", "South") -> Seq(20.0),
    ("Winter", "North") -> Seq(10.0),
    ("Winter", "South") -> Seq(10.0)))

  /** Build a 2-dim (season, region) relation from per-cell target lists. */
  def grid(cells: Map[(String, String), Seq[Double]]): EncodedRelation = {
    val raw = cells.toSeq.sortBy(_._1).flatMap { case ((s, r), ts) =>
      ts.map(t => (IndexedSeq(s, r), t))
    }
    fromLabels(IndexedSeq("season", "region"), raw)
  }

  /** Dictionary-encode string-valued rows as `Encoding.fromRows` does, with
    * the target named "t".
    */
  def fromLabels(dimNames: IndexedSeq[String],
                 raw: Seq[(IndexedSeq[String], Double)]): EncodedRelation = {
    val rows = raw.map { case (vals, t) => Row.fromSeq(vals :+ t) }.toArray
    Encoding.fromRows(rows, dimNames, Seq("t")).relationFor("t", Nil)
  }

  /** The relation of encoded rows given one at a time: each row's value ids
    * per dimension, and its target.
    */
  def relation(dimNames: IndexedSeq[String], dimValues: IndexedSeq[IndexedSeq[String]],
               rows: Array[(Array[Int], Double)]): EncodedRelation =
    EncodedRelation(dimNames, dimValues,
      Array.tabulate(dimNames.length)(d => rows.map(_._1(d))), rows.map(_._2))

  /** Random relation: `numDims` dimensions with cardinality ≤ maxCard,
    * integer-ish targets (ties likely — good for tie-handling coverage).
    */
  def randomRelation(rnd: Random, numDims: Int, maxCard: Int, rows: Int): EncodedRelation = {
    val cards = IndexedSeq.fill(numDims)(1 + rnd.nextInt(maxCard))
    val dimNames = (0 until numDims).map(i => s"d$i")
    val dimValues = cards.zipWithIndex.map { case (c, i) =>
      (0 until c).map(v => s"v${i}_$v")
    }
    relation(dimNames, dimValues, Array.fill(rows)((
      Array.tabulate(numDims)(i => rnd.nextInt(cards(i))),
      rnd.nextInt(100).toDouble)))
  }

  /** Like randomRelation but with continuous targets (ties improbable) —
    * used when comparing solvers whose tie-breaking may differ.
    */
  def randomRelationCont(rnd: Random, numDims: Int, maxCard: Int, rows: Int): EncodedRelation = {
    val base = randomRelation(rnd, numDims, maxCard, rows)
    base.copy(target = base.target.map(_ => rnd.nextDouble() * 100))
  }

  /** The encoded table of `rel`, without Spark: same dictionaries and row
    * order, `rel`'s target repeated under each of `targets`.
    */
  def table(rel: EncodedRelation, targets: IndexedSeq[String] = IndexedSeq("t")): EncodedTable =
    EncodedTable(rel.dimNames, rel.dimValues, targets, rel.dimCols,
      Array.fill(targets.length)(rel.target))

  /** Decode an EncodedRelation back into a Spark DataFrame (dims as strings,
    * target as double), the input of `Encoding.fromDataFrame` and the batch job.
    */
  def toDf(spark: SparkSession, rel: EncodedRelation, target: String = "t"): DataFrame = {
    val schema = StructType(
      rel.dimNames.map(d => StructField(d, StringType, nullable = false)) :+
        StructField(target, DoubleType, nullable = false))
    val rows = (0 until rel.numRows).map { ri =>
      Row.fromSeq(rel.dimNames.indices.map(d => rel.dimValues(d)(rel.dimCols(d)(ri))) :+ rel.target(ri))
    }
    spark.createDataFrame(
      new java.util.ArrayList[Row](scala.jdk.CollectionConverters.SeqHasAsJava(rows).asJava),
      schema)
  }
}

package repro.system

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.EncodedRelation

/** A multi-target table encoded for the batch pre-processing job: dimension
  * dictionaries shared across problems, one column per dimension and per
  * target. Compact enough to broadcast (ints + doubles only), so each
  * executor task can solve its summarization problems against local arrays.
  *
  * @param dimCols    per dimension, the value id of every row
  * @param targetCols per target, the value of every row
  */
final case class EncodedTable(
    dimNames: IndexedSeq[String],
    dimValues: IndexedSeq[IndexedSeq[String]],
    targetNames: IndexedSeq[String],
    dimCols: Array[Array[Int]],
    targetCols: Array[Array[Double]]) {

  val numRows: Int =
    if (dimCols.nonEmpty) dimCols(0).length else targetCols.headOption.fold(0)(_.length)

  private def dimIdx(name: String): Int = {
    val i = dimNames.indexOf(name)
    require(i >= 0, s"unknown dimension $name")
    i
  }

  def valueIdx(dim: String, value: String): Option[Int] = {
    val vi = dimValues(dimIdx(dim)).indexOf(value)
    if (vi >= 0) Some(vi) else None
  }

  /** Sorted row ids per dimension and value id: `postings(d)(v)` lists the
    * rows with value `v` in dimension `d`. Built once per table instance; it
    * is not shipped with a broadcast table, each executor rebuilds it on
    * first use.
    */
  @transient private lazy val postings: Array[Array[Array[Int]]] =
    dimValues.indices.map { d =>
      val lists = Array.fill(dimValues(d).length)(Array.newBuilder[Int])
      var ri = 0
      while (ri < numRows) { lists(dimCols(d)(ri)) += ri; ri += 1 }
      lists.map(_.result())
    }.toArray

  /** The single-target relation for `target`, filtered to rows satisfying
    * `predicates` and projected to the dimensions NOT bound by a predicate —
    * facts within a query's subset only restrict additional dimensions
    * (§III: query predicates plus up to `maxExtraFactDims` more).
    *
    * The matching rows come from intersecting the predicates' posting lists,
    * so they keep table order; one `gather` copies their free dimension
    * columns and the target column. A value absent from the dictionary
    * matches no row.
    */
  def relationFor(target: String, predicates: Seq[(String, String)]): EncodedRelation = {
    val ti = targetNames.indexOf(target)
    require(ti >= 0, s"unknown target $target")
    val preds = predicates.map { case (d, v) =>
      val di = dimIdx(d)
      (di, dimValues(di).indexOf(v))
    }
    val freeDims = dimNames.indices.filterNot(i => preds.exists(_._1 == i)).toIndexedSeq
    val matching =
      if (preds.isEmpty) Array.range(0, numRows)
      else if (preds.exists(_._2 < 0)) Array.emptyIntArray
      else preds.map { case (d, v) => postings(d)(v) }.sortBy(_.length)
        .reduceLeft(EncodedTable.intersect)
    EncodedRelation(freeDims.map(dimNames), freeDims.map(dimValues),
      freeDims.map(dimCols).toArray, targetCols(ti)).gather(matching)
  }
}

object EncodedTable {

  /** Intersection of two strictly increasing row-id lists, in order. */
  private def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0
    var j = 0
    var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out(k) = a(i); k += 1; i += 1; j += 1 }
    }
    java.util.Arrays.copyOf(out, k)
  }
}

object Encoding {

  /** Dictionary-encode a DataFrame with one Spark job: the rows are
    * collected to the driver once and encoded by [[fromRows]]. The table
    * must fit the driver, which holds for all bench scale factors (ints +
    * doubles only).
    */
  def fromDataFrame(df: DataFrame, dims: Seq[String], targets: Seq[String]): EncodedTable = {
    val norm = df.select(
      dims.map(d => col(d).cast("string").as(d)) ++
        targets.map(t => col(t).cast("double").as(t)): _*)
    fromRows(norm.collect(), dims, targets)
  }

  /** Encode rows holding the `dims` as strings, then the `targets` as
    * doubles. Each dimension's dictionary is its distinct values in sorted
    * order, so encoding does not depend on row order.
    */
  def fromRows(rows: Array[Row], dims: Seq[String], targets: Seq[String]): EncodedTable = {
    val dicts = dims.indices.map(j => rows.iterator.map(_.getString(j)).distinct.toIndexedSeq.sorted)
    val dimCols = dicts.indices.map { j =>
      val id = dicts(j).zipWithIndex.toMap
      rows.map(r => id(r.getString(j)))
    }.toArray
    val targetCols = targets.indices.map(j => rows.map(_.getDouble(dims.length + j))).toArray
    EncodedTable(dims.toIndexedSeq, dicts, targets.toIndexedSeq, dimCols, targetCols)
  }
}

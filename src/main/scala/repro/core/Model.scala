package repro.core

/** Problem model of the paper (§II), over a densely encoded relation.
  *
  * A relation row is a full assignment of every dimension column plus one
  * numeric target value. Dimension values are dictionary-encoded to dense
  * ints so that scope membership checks and fact lookups are array work.
  * The relation is stored column by column; a row is an index into every
  * column.
  *
  * @param dimNames   names of the dimension columns, index-aligned with `dimCols`
  * @param dimValues  per dimension, the dictionary mapping value id -> label
  * @param dimCols    per dimension, the value id of every row
  * @param target     the target value of every row
  */
final case class EncodedRelation(
    dimNames: IndexedSeq[String],
    dimValues: IndexedSeq[IndexedSeq[String]],
    dimCols: Array[Array[Int]],
    target: Array[Double]) {

  def numDims: Int = dimNames.length
  def numRows: Int = target.length

  /** Cardinality of each dimension's dictionary. */
  def cards: IndexedSeq[Int] = dimValues.map(_.length)

  /** Mean of the target column — the paper's constant prior (§VIII-A). */
  def targetMean: Double =
    if (numRows == 0) 0.0 else target.foldLeft(0.0)(_ + _) / numRows

  /** The rows `rowIds`, in that order, with every column gathered. */
  def gather(rowIds: Array[Int]): EncodedRelation = {
    val n = rowIds.length
    val cols = dimCols.map { c =>
      val out = new Array[Int](n)
      var i = 0
      while (i < n) { out(i) = c(rowIds(i)); i += 1 }
      out
    }
    val t = new Array[Double](n)
    var i = 0
    while (i < n) { t(i) = target(rowIds(i)); i += 1 }
    copy(dimCols = cols, target = t)
  }
}

/** A fact (§II Def. 2): a scope restricting a subset of the dimensions plus
  * the mean target value ("typical value") over rows within scope.
  *
  * @param dims    restricted dimension indexes, strictly increasing
  * @param values  dictionary ids, aligned with `dims`
  * @param typical mean target value over rows within scope
  * @param support number of rows within scope
  */
final case class Fact(dims: Array[Int], values: Array[Int], typical: Double, support: Long) {

  /** Whether row `ri` of `rel` is within this fact's scope (Def. 2). */
  def inScope(rel: EncodedRelation, ri: Int): Boolean = {
    var i = 0
    while (i < dims.length) {
      if (rel.dimCols(dims(i))(ri) != values(i)) return false
      i += 1
    }
    true
  }

  /** The scope as (dimension name, value label) pairs, in dimension order. */
  def labels(rel: EncodedRelation): IndexedSeq[(String, String)] =
    dims.indices.map(i => rel.dimNames(dims(i)) -> rel.dimValues(dims(i))(values(i)))

  /** Human-readable scope, e.g. `season=Winter ∧ region=South`. */
  def describeScope(rel: EncodedRelation): String =
    if (dims.isEmpty) "overall"
    else labels(rel).map { case (d, v) => s"$d=$v" }.mkString(" ∧ ")
}

/** A speech (§II Def. 3): a set of facts, here carried with its utility. */
final case class Speech(facts: IndexedSeq[Fact], utility: Double)

/** Exact per-row evaluation of the user model (§II Defs. 4–6). */
object Eval {

  /** Expected value for row `ri` after hearing `facts` (Def. 4): the
    * candidate value — prior plus typical values of in-scope facts — closest
    * to the row's true target value.
    */
  def expectation(facts: Seq[Fact], rel: EncodedRelation, ri: Int, prior: Double): Double = {
    val t = rel.target(ri)
    var best = prior
    var bestDev = math.abs(prior - t)
    facts.foreach { f =>
      if (f.inScope(rel, ri)) {
        val dev = math.abs(f.typical - t)
        if (dev < bestDev) { bestDev = dev; best = f.typical }
      }
    }
    best
  }

  /** Accumulated deviation D(F) over all rows (Def. 5). */
  def deviation(rel: EncodedRelation, facts: Seq[Fact], prior: Double): Double =
    (0 until rel.numRows).foldLeft(0.0) { (sum, ri) =>
      sum + math.abs(expectation(facts, rel, ri, prior) - rel.target(ri))
    }

  /** Utility U(F) = D(∅) − D(F) (Def. 6). */
  def utility(rel: EncodedRelation, facts: Seq[Fact], prior: Double): Double =
    deviation(rel, Nil, prior) - deviation(rel, facts, prior)
}

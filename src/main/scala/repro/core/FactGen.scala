package repro.core

import scala.collection.mutable

/** Enumeration of candidate facts (§III): one fact per scope pattern — a
  * subset of at most `maxFactDims` dimension columns — and per combination
  * of dimension values that actually appears in the data (Thm 9 bounds the
  * count). The empty pattern yields the overall-average fact.
  */
object FactGen {

  /** All subsets of `0 until d` with at most `maxSize` elements, ordered by
    * size then lexicographically — the fact groups of Alg. 3 (`PowerSet`).
    */
  def patterns(d: Int, maxSize: Int): IndexedSeq[Array[Int]] = {
    val all = (0 until d).toSet.subsets()
      .filter(_.size <= maxSize)
      .map(_.toArray.sorted)
      .toIndexedSeq
    all.sortBy(p => (p.length, p.map(i => f"$i%04d").mkString(",")))
  }

  /** One pass over the rows per pattern: each row's values in the
    * pattern's columns collapse to one mixed-radix key, each new key takes
    * the next slot, and targets are summed per slot in row order. Fact ids
    * then follow sorted keys, group after group, so they do not depend on
    * row order; the row → slot column becomes the group's row → fact-id
    * column.
    */
  def build(rel: EncodedRelation, maxFactDims: Int): FactIndex = {
    val ps = patterns(rel.numDims, maxFactDims)
    val cards = rel.cards
    val target = rel.target
    val n = rel.numRows
    val facts = mutable.ArrayBuffer.empty[Fact]
    val groupStart = new Array[Int](ps.length + 1)
    val factIds = ps.indices.map { pi =>
      val p = ps(pi)
      val cols = p.map(rel.dimCols)
      val strides = new Array[Long](p.length)
      var space = 1L
      var i = 0
      while (i < p.length) { strides(i) = space; space *= cards(p(i)); i += 1 }
      val cap = math.min(n.toLong, space).toInt
      val keys = new Array[Long](cap)
      val sums = new Array[Double](cap)
      val counts = new Array[Long](cap)
      val slotOf = new mutable.LongMap[Int]()
      val col = new Array[Int](n)
      var slots = 0
      var ri = 0
      while (ri < n) {
        var key = 0L
        i = 0
        while (i < p.length) { key += cols(i)(ri) * strides(i); i += 1 }
        var s = slotOf.getOrElse(key, -1)
        if (s < 0) { s = slots; slotOf.put(key, s); keys(s) = key; slots += 1 }
        sums(s) += target(ri)
        counts(s) += 1
        col(ri) = s
        ri += 1
      }
      groupStart(pi) = facts.length
      val idOf = new Array[Int](slots)
      Array.range(0, slots).sortBy(keys(_)).foreach { s =>
        val values = new Array[Int](p.length)
        var rest = keys(s)
        i = 0
        while (i < p.length) {
          values(i) = (rest % cards(p(i))).toInt
          rest /= cards(p(i))
          i += 1
        }
        idOf(s) = facts.length
        facts += Fact(p, values, sums(s) / counts(s), counts(s))
      }
      ri = 0
      while (ri < n) { col(ri) = idOf(col(ri)); ri += 1 }
      col
    }
    groupStart(ps.length) = facts.length
    new FactIndex(rel, ps, factIds, groupStart, facts.toIndexedSeq)
  }
}

/** Candidate facts of a relation, grouped by scope pattern ("fact group" in
  * Alg. 3). Each group's facts have consecutive ids, and each group keeps a
  * column mapping every row to the id of the one fact of the group whose
  * scope contains it. The solver kernel — the per-group passes of greedy
  * and the exact search — reads only these columns and dense arrays.
  */
final class FactIndex(
    val rel: EncodedRelation,
    val patterns: IndexedSeq[Array[Int]],
    factIds: IndexedSeq[Array[Int]],
    groupStart: Array[Int],
    val facts: IndexedSeq[Fact]) {

  val numFacts: Int = facts.length
  val numPatterns: Int = patterns.length

  /** Target value per row and typical value per fact. */
  private val targets: Array[Double] = rel.target
  private val typical: Array[Double] = facts.iterator.map(_.typical).toArray
  private val groupOf: Array[Int] = {
    val g = new Array[Int](numFacts)
    var pi = 0
    while (pi < numPatterns) {
      java.util.Arrays.fill(g, groupStart(pi), groupStart(pi + 1), pi)
      pi += 1
    }
    g
  }

  /** Fact id of the (unique) fact in group `pi` whose scope contains row `ri`. */
  def factIdFor(pi: Int, ri: Int): Int = factIds(pi)(ri)

  /** Number of facts in group `pi` — M(g) of §VI-C. */
  def groupSize(pi: Int): Int = groupStart(pi + 1) - groupStart(pi)

  /** Fact ids belonging to group `pi`, ascending. */
  def groupFacts(pi: Int): IndexedSeq[Int] = groupStart(pi) until groupStart(pi + 1)

  /** Whether group `a`'s pattern is a subset of group `b`'s — i.e. `b`
    * specializes `a` (restricts a superset of dimensions, Alg. 3 line 19).
    */
  def isSpecialization(a: Int, b: Int): Boolean = {
    val pa = patterns(a); val pb = patterns(b)
    pa.forall(pb.contains)
  }

  /** |v_r − prior| for every row r: the deviations under the prior alone. */
  private[core] def priorDeviations(prior: Double): Array[Double] =
    targets.map(t => math.abs(prior - t))

  /** The utility pass (the paper's fact–row join) for group `pi`: sets
    * `out(f)`, for every fact `f` of the group, to the utility gain of adding
    * `f` when row r currently deviates by `dev(r)` — the sum, in row order,
    * of dev(r) − |typical(f) − v_r| over the rows of f's scope where that is
    * positive.
    */
  private[core] def gains(pi: Int, dev: Array[Double], out: Array[Double]): Unit = {
    val col = factIds(pi)
    java.util.Arrays.fill(out, groupStart(pi), groupStart(pi + 1), 0.0)
    var ri = 0
    while (ri < col.length) {
      val fid = col(ri)
      val g = dev(ri) - math.abs(typical(fid) - targets(ri))
      if (g > 0) out(fid) += g
      ri += 1
    }
  }

  /** The bound pass for group `pi`: sets `out(f)` to the deviation mass, the
    * sum of dev(r) in row order, over the rows of each fact f's scope.
    */
  private[core] def masses(pi: Int, dev: Array[Double], out: Array[Double]): Unit = {
    val col = factIds(pi)
    java.util.Arrays.fill(out, groupStart(pi), groupStart(pi + 1), 0.0)
    var ri = 0
    while (ri < col.length) { out(col(ri)) += dev(ri); ri += 1 }
  }

  /** Lowers `dev(r)` to |typical(f) − v_r| on the rows of `fid`'s scope where
    * that is smaller; returns the sum, in row order, of the decreases.
    */
  private[core] def applyFact(fid: Int, dev: Array[Double]): Double = {
    val col = factIds(groupOf(fid))
    val c = typical(fid)
    var gain = 0.0
    var ri = 0
    while (ri < col.length) {
      if (col(ri) == fid) {
        val d = math.abs(c - targets(ri))
        if (d < dev(ri)) { gain += dev(ri) - d; dev(ri) = d }
      }
      ri += 1
    }
    gain
  }

  /** U(F) for the facts `fids`, starting from deviations `dev0`: the sum, in
    * row order, of dev0(r) minus the row's deviation after hearing F.
    */
  private[core] def utility(fids: Array[Int], dev0: Array[Double]): Double = {
    val cols = fids.map(fid => factIds(groupOf(fid)))
    var u = 0.0
    var ri = 0
    while (ri < dev0.length) {
      var dev = dev0(ri)
      var fi = 0
      while (fi < fids.length) {
        if (cols(fi)(ri) == fids(fi)) {
          val d = math.abs(typical(fids(fi)) - targets(ri))
          if (d < dev) dev = d
        }
        fi += 1
      }
      u += dev0(ri) - dev
      ri += 1
    }
    u
  }
}

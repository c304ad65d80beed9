package repro.perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.system.Summary

/** The benchmark's own model of a generated table, used to check the
  * program's outputs without calling the program's encoding, fact
  * generation or solvers. Rows are collected straight from the generated
  * DataFrame and dictionary-encoded here, column by column.
  */
final class Reference(
    val dims: IndexedSeq[String],
    val targets: IndexedSeq[String],
    dicts: IndexedSeq[IndexedSeq[String]],
    codes: Array[Array[Int]],      // codes(dim)(row)
    values: Array[Array[Double]],  // values(target)(row)
    maxQueryLen: Int,
    maxExtraFactDims: Int,
    m: Int) {

  import Reference._

  val numRows: Int = if (codes.isEmpty) 0 else codes(0).length
  private val codeOf: IndexedSeq[Map[String, Int]] = dicts.map(_.zipWithIndex.toMap)

  /** Row ids of every data subset a query of at most `maxQueryLen`
    * predicates can name, keyed by its predicate map. The keys are exactly
    * the predicate sets the problem generator must enumerate.
    */
  val subsets: Map[Map[String, String], Array[Int]] = {
    val out = mutable.HashMap.empty[Map[String, String], mutable.ArrayBuilder.ofInt]
    val patterns = dims.indices.toSet.subsets().filter(_.size <= maxQueryLen)
      .map(_.toArray.sorted).toIndexedSeq
    patterns.foreach { p =>
      val byCodes = mutable.HashMap.empty[List[Int], mutable.ArrayBuilder.ofInt]
      var r = 0
      while (r < numRows) {
        byCodes.getOrElseUpdate(p.toList.map(codes(_)(r)), new mutable.ArrayBuilder.ofInt) += r
        r += 1
      }
      byCodes.foreach { case (cs, rows) =>
        out(p.toList.zip(cs).map { case (d, c) => dims(d) -> dicts(d)(c) }.toMap) = rows
      }
    }
    out.view.mapValues(_.result()).toMap
  }

  /** Expected problem keys: every subset above, once per target. */
  val expectedKeys: Set[Key] =
    for { t <- targets.toSet[String]; p <- subsets.keySet } yield Key(t, p)

  def numProblems: Int = expectedKeys.size

  private def targetIdx(t: String): Int = {
    val i = targets.indexOf(t); require(i >= 0, s"unknown target $t"); i
  }

  private def inScope(scope: Seq[(Int, Int)], r: Int): Boolean =
    scope.forall { case (d, c) => codes(d)(r) == c }

  /** Encode a fact scope, or None if it names an unknown dim or value. */
  private def encodeScope(scope: Map[String, String]): Option[Seq[(Int, Int)]] = {
    val enc = scope.toSeq.map { case (d, v) =>
      val di = dims.indexOf(d)
      if (di < 0) None else codeOf(di).get(v).map(di -> _)
    }
    if (enc.forall(_.isDefined)) Some(enc.flatten) else None
  }

  /** Check one summary against a recomputation from the raw rows: the
    * subset, the prior and D(∅), each fact's scope, typical value and
    * support, and U(F) under the §II user model. Returns the failed check.
    */
  def check(s: Summary): Option[String] = {
    val rows = subsets.getOrElse(s.predicates, null)
    if (rows == null || !targets.contains(s.target)) return Some(s"no such problem: ${s.key}")
    val v = values(targetIdx(s.target))
    val prior = rows.iterator.map(v(_)).sum / rows.length
    val dev0 = rows.map(r => math.abs(prior - v(r)))
    val d0 = dev0.sum
    val tol = 1e-7 * (1.0 + rows.iterator.map(r => math.abs(v(r))).sum)
    if (math.abs(s.baseError - d0) > tol) return Some(s"${s.key}: D(∅) ${s.baseError} != $d0")
    if (s.facts.length > m) return Some(s"${s.key}: ${s.facts.length} facts > m = $m")
    val scopes = mutable.ArrayBuffer.empty[Seq[(Int, Int)]]
    s.facts.foreach { f =>
      if (f.scope.keySet.exists(s.predicates.contains))
        return Some(s"${s.key}: fact restricts a bound dim: ${f.scope}")
      if (f.scope.size > maxExtraFactDims)
        return Some(s"${s.key}: fact restricts ${f.scope.size} dims")
      val scope = encodeScope(f.scope).getOrElse(return Some(s"${s.key}: unknown scope ${f.scope}"))
      val in = rows.filter(inScope(scope, _))
      if (in.length.toLong != f.support)
        return Some(s"${s.key}: support ${f.support} != ${in.length} for ${f.scope}")
      val typical = in.iterator.map(v(_)).sum / in.length
      if (math.abs(typical - f.typical) > 1e-9 * (1.0 + math.abs(typical)))
        return Some(s"${s.key}: typical ${f.typical} != $typical for ${f.scope}")
      scopes += scope
    }
    var u = 0.0
    var i = 0
    while (i < rows.length) {
      val r = rows(i)
      var best = dev0(i)
      var fi = 0
      while (fi < scopes.length) {
        if (inScope(scopes(fi), r)) best = math.min(best, math.abs(s.facts(fi).typical - v(r)))
        fi += 1
      }
      u += dev0(i) - best
      i += 1
    }
    if (math.abs(s.utility - u) > tol) return Some(s"${s.key}: U ${s.utility} != $u")
    if (s.utility < -tol || s.utility > d0 + tol) return Some(s"${s.key}: U ${s.utility} outside [0, $d0]")
    None
  }

  /** Optimal utility of a problem by exhaustive search over every set of at
    * most m ≤ 3 candidate facts, or None when the search would exceed
    * `budget` row visits. Candidate facts are all scopes over at most
    * `maxExtraFactDims` unbound dims that occur in the subset. Facts that
    * lower no row's deviation are dropped first, since they cannot change
    * the utility of any set they join. The search visits facts by
    * single-fact utility U1, highest first, and skips every set whose
    * U1 sum cannot beat the best set so far. That skip is exact because
    * U(F) ≤ Σ_{f∈F} U1(f).
    */
  def optimum(key: Key, budget: Double): Option[Double] = {
    require(m <= 3, s"exhaustive search supports m ≤ 3, not $m")
    val rows = subsets(key.predicates)
    val v = values(targetIdx(key.target))
    val n = rows.length
    val prior = rows.iterator.map(v(_)).sum / n
    val dev0 = rows.map(r => math.abs(prior - v(r)))
    val free = dims.indices.filterNot(d => key.predicates.contains(dims(d)))
    val gains = mutable.ArrayBuffer.empty[Array[Double]]
    free.toSet.subsets().filter(_.size <= maxExtraFactDims).foreach { p =>
      val ps = p.toArray.sorted
      val groups = (0 until n).groupBy(i => ps.toList.map(codes(_)(rows(i))))
      groups.values.foreach { members =>
        val typical = members.iterator.map(i => v(rows(i))).sum / members.length
        val g = new Array[Double](n)
        var any = false
        members.foreach { i =>
          val gi = dev0(i) - math.abs(typical - v(rows(i)))
          if (gi > 0) { g(i) = gi; any = true }
        }
        if (any) gains += g
      }
    }
    val g = gains.sortBy(-_.sum).toArray
    val u1 = g.map(_.sum) :+ 0.0 :+ 0.0
    val zero = new Array[Double](n)
    var visits = 0.0
    var best = 0.0
    def score(a: Array[Double], b: Array[Double], c: Array[Double]): Unit = {
      visits += n
      var s = 0.0
      var i = 0
      while (i < n) { s += math.max(a(i), math.max(b(i), c(i))); i += 1 }
      if (s > best) best = s
    }
    val (m2, m3) = (if (m >= 2) 1.0 else 0.0, if (m >= 3) 1.0 else 0.0)
    var a = 0
    while (a < g.length && u1(a) + m2 * u1(a + 1) + m3 * u1(a + 2) > best) {
      score(g(a), zero, zero)
      var b = a + 1
      while (m >= 2 && b < g.length && u1(a) + u1(b) + m3 * u1(b + 1) > best) {
        score(g(a), g(b), zero)
        if (visits > budget) return None
        var c = b + 1
        while (m >= 3 && c < g.length && u1(a) + u1(b) + u1(c) > best) {
          score(g(a), g(b), g(c))
          if (visits > budget) return None
          c += 1
        }
        b += 1
      }
      a += 1
    }
    Some(best)
  }

  /** Up to `count` problems, drawn in seeded order, whose exhaustive
    * search stays within `budget`, with their optimal utilities.
    */
  def smallProblems(seed: Long, count: Int, budget: Double, scan: Int): Seq[(Key, Double)] = {
    val ordered = new Random(seed).shuffle(expectedKeys.toSeq.sortBy(_.toString))
    ordered.iterator.take(scan)
      .filter(k => subsets(k.predicates).length <= 4000)
      .flatMap(k => optimum(k, budget).map(k -> _))
      .take(count).toSeq
  }

  /** Predicate sets S ⊆ q that name a materialized subset, found by
    * probing all 2^|q| subsets of q.
    */
  def materializedSubsetsOf(q: Map[String, String]): Seq[Map[String, String]] =
    q.toSeq.toSet.subsets().map(_.toMap).filter(subsets.contains).toSeq
}

object Reference {

  /** A problem: a target plus a predicate map (order-free). */
  final case class Key(target: String, predicates: Map[String, String])

  def keyOf(s: Summary): Key = Key(s.target, s.predicates)

  /** Collect a generated table. Dims are read as strings and targets as
    * doubles, as the voice query and the speech see them. */
  def collect(df: DataFrame, dims: Seq[String], targets: Seq[String],
              maxQueryLen: Int, maxExtraFactDims: Int, m: Int): Reference = {
    val rows = df.select(dims.map(d => col(d).cast("string")) ++
      targets.map(t => col(t).cast("double")): _*).collect()
    val dicts = dims.indices.map(j => rows.iterator.map(_.getString(j)).toSet.toIndexedSeq.sorted)
    val codeOf = dicts.map(_.zipWithIndex.toMap)
    val codes = dims.indices.map(j => rows.map(r => codeOf(j)(r.getString(j)))).toArray
    val values = targets.indices.map(j => rows.map(_.getDouble(dims.length + j))).toArray
    new Reference(dims.toIndexedSeq, targets.toIndexedSeq, dicts, codes, values,
      maxQueryLen, maxExtraFactDims, m)
  }
}

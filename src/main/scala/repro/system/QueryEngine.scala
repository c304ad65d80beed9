package repro.system

import org.apache.spark.sql.Dataset

/** How a query was answered: by its own summary, by the summary of a
  * subset of its predicates (`dropped` of them left out), or not at all.
  */
sealed trait Resolution {
  def summary: Option[Summary]
}

object Resolution {
  final case class Exact(s: Summary) extends Resolution {
    def summary: Option[Summary] = Some(s)
  }
  final case class Fallback(s: Summary, dropped: Int) extends Resolution {
    def summary: Option[Summary] = Some(s)
  }
  case object Miss extends Resolution {
    def summary: Option[Summary] = None
  }
}

/** Run-time query answering (§III): map a voice query — target column plus
  * equality predicates — to the best pre-generated speech.
  *
  * The speech of the query's own subset if it is materialized; otherwise the
  * one describing the most specific data subset *containing* the query's
  * subset: predicates `S ⊆ Q` with maximal `|S|`, ties broken by the
  * smallest [[Summary.key]]. The subsets of `Q` form a lattice (the data
  * cube's), so the engine probes them in a per-target map keyed by the
  * predicates, largest first, rather than scanning the target's summaries;
  * sizes above the largest materialized predicate count are skipped.
  */
final class QueryEngine(summaries: Seq[Summary]) {

  private val byTarget: Map[String, Map[Map[String, String], Summary]] =
    summaries.groupBy(_.target).view.mapValues(_.map(s => s.predicates -> s).toMap).toMap
  private val maxLen: Int = summaries.iterator.map(_.predicates.size).maxOption.getOrElse(0)

  val size: Int = summaries.size

  /** Exact lookup only. */
  def exact(target: String, predicates: Map[String, String]): Option[Summary] =
    byTarget.get(target).flatMap(_.get(predicates))

  /** Lookup with most-specific-subset fallback. */
  def lookup(target: String, predicates: Map[String, String]): Option[Summary] =
    resolve(target, predicates).summary

  /** Lookup with most-specific-subset fallback, reporting which it was. */
  def resolve(target: String, predicates: Map[String, String]): Resolution =
    byTarget.get(target) match {
      case None => Resolution.Miss
      case Some(index) => index.get(predicates) match {
        case Some(s) => Resolution.Exact(s)
        case None =>
          val q = predicates.toArray
          var k = math.min(q.length - 1, maxLen)
          while (k >= 0) {
            val hit = bestOfSize(index, q, k)
            if (hit != null) return Resolution.Fallback(hit, q.length - k)
            k -= 1
          }
          Resolution.Miss
      }
    }

  /** The materialized summary, among the `k`-predicate subsets of `q`, with
    * the smallest key; null if there is none. Keys are built only to break
    * a tie.
    */
  private def bestOfSize(index: Map[Map[String, String], Summary],
                         q: Array[(String, String)], k: Int): Summary = {
    var best: Summary = null
    var bestKey: String = null
    def probe(from: Int, left: Int, subset: Map[String, String]): Unit =
      if (left == 0) index.get(subset).foreach { s =>
        if (best == null) best = s
        else {
          if (bestKey == null) bestKey = best.key
          val key = s.key
          if (key < bestKey) { best = s; bestKey = key }
        }
      }
      else {
        var i = from
        while (i <= q.length - left) {
          probe(i + 1, left - 1, subset + q(i))
          i += 1
        }
      }
    probe(0, k, Map.empty)
    best
  }
}

object QueryEngine {
  /** Load a materialized summaries table (e.g. read back from Parquet). */
  def fromDataset(ds: Dataset[Summary]): QueryEngine =
    new QueryEngine(ds.collect().toIndexedSeq)
}

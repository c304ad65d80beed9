package repro.system

import repro.core.FactGen

/** The paper's Problem Generator (§III): one summarization problem per
  * combination of a target column and a set of up to `maxQueryLen` equality
  * predicates on distinct dimensions, considering every value combination
  * that appears in the data (Thm 10 bounds the count).
  */
object ProblemGenerator {

  /** Enumerate problems against an encoded table, with no Spark jobs: the
    * value combinations of each dimension subset in ascending id order.
    */
  def problems(table: EncodedTable, config: SummarizationConfig): Seq[Problem] = {
    val d = table.dimNames.length
    val subsets = FactGen.patterns(d, config.maxQueryLen)
    val combosPerSubset = subsets.map { p =>
      if (p.isEmpty) Seq(Seq.empty[(String, String)])
      else {
        val seen = scala.collection.mutable.LinkedHashSet.empty[Seq[Int]]
        val cols = p.toSeq.map(table.dimCols)
        (0 until table.numRows).foreach(ri => seen += cols.map(_(ri)))
        seen.toSeq.sorted(Ordering.Implicits.seqOrdering[Seq, Int])
          .map(vs => p.toSeq.zip(vs).map { case (di, vi) =>
            table.dimNames(di) -> table.dimValues(di)(vi)
          })
      }
    }
    for {
      target <- config.dataset.targets
      combos <- combosPerSubset
      preds <- combos
    } yield Problem(target, preds)
  }
}

package repro.perfbench

import scala.collection.mutable
import repro.perfbench.Reference.Key
import repro.system._

/** The run-time side: one client in a closed loop, sending its next
  * request only after the previous answer. Stream 1 replays a voice log
  * through the request path; stream 2 sends queries longer than
  * `maxQueryLen`, which only the most-specific-subset fallback can answer.
  */
final class Serve(engine: QueryEngine, vocab: Vocabulary, maxQueryLen: Int) {

  /** One voice request as the deployed skill answers it: classify, and for
    * a supported query parse → lookup; the summary carries the speech.
    * Other request types get a canned reply (null here).
    */
  def request(text: String): Summary =
    QueryClassifier.classify(text, vocab, maxQueryLen) match {
      case RequestType.SQuery =>
        QueryClassifier.parse(text, vocab, maxQueryLen) match {
          case Some(pq) => engine.lookup(pq.target, pq.predicates).orNull
          case None => null
        }
      case _ => null
    }

  def fallback(q: Key): Summary = engine.lookup(q.target, q.predicates).orNull
}

object Serve {

  /** Keys a correct answer may carry: the query's own subset when it is
    * materialized, else every materialized S ⊆ Q with the most predicates.
    */
  def acceptable(ref: Reference, q: Key): Set[Key] =
    if (ref.subsets.contains(q.predicates)) Set(q)
    else {
      val subs = ref.materializedSubsetsOf(q.predicates)
      val most = subs.map(_.size).max
      subs.filter(_.size == most).map(Key(q.target, _)).toSet
    }

  /** Expected answers of a labeled voice log, from the generator's labels
    * and the benchmark's own reading of the text: None where the label is
    * not a supported query (no data answer), else the acceptable keys of
    * every query the text can mean.
    */
  def expectedReplies(ref: Reference, vocab: Vocabulary,
                      log: Array[(String, RequestType)]): Array[Option[Set[Key]]] = log.map {
    case (text, RequestType.SQuery) => Some(meanings(vocab, text).flatMap(acceptable(ref, _)).toSet)
    case _ => None
  }

  /** The queries a request can mean: a target one of whose synonyms it
    * says, with one spoken value for each dim whose values it says.
    * Single-character values are not speech evidence.
    */
  def meanings(vocab: Vocabulary, text: String): Seq[Key] = {
    val words = text.toLowerCase.split(' ').filter(_.nonEmpty).mkString(" ", " ", " ")
    def says(phrase: String): Boolean = words.contains(" " + phrase.toLowerCase + " ")
    val targets = vocab.targetSynonyms.collect { case (t, syns) if syns.exists(says) => t }
    val spoken = vocab.dimValues.toSeq.map { case (d, vs) => d -> vs.filter(v => v.length >= 2 && says(v)) }
    val predicates = spoken.filter(_._2.nonEmpty).foldLeft(Seq(Map.empty[String, String])) {
      case (qs, (d, vs)) => for (q <- qs; v <- vs) yield q + (d -> v)
    }
    for (t <- targets.toSeq; q <- predicates) yield Key(t, q)
  }

  /** Whether a request names a dim value with characters other than
    * letters and digits ("25-34", "55+"). `QueryClassifier.parse` matches
    * values against the text with those characters blanked out, so it
    * never finds them and answers for a shorter query.
    */
  def namesPunctuatedValue(vocab: Vocabulary, text: String): Boolean = {
    val words = text.split(' ').filter(_.nonEmpty).toSet
    vocab.dimValues.values.flatten.exists(v => !v.forall(_.isLetterOrDigit) && words.contains(v))
  }

  /** Whole rounds over `n` items. Each operation is timed on its own.
    * After a round's time is taken, its latencies are reduced to their
    * median and 99th percentile, and its answers are compared with the
    * first round's; the first round's answers are checked later. So memory
    * stays bounded however many rounds a fast program runs.
    */
  final class Rounds(n: Int, op: Int => Summary) {
    private val l = new Array[Long](n)
    private val a = new Array[Summary](n)
    private val first = new Array[Summary](n)
    private val p50s = mutable.ArrayBuilder.make[Double]
    private val p99s = mutable.ArrayBuilder.make[Double]
    private var changed = 0
    var rounds = 0
    var nanos = 0L

    def round(): Unit = {
      val r0 = System.nanoTime()
      var i = 0
      while (i < n) {
        val t0 = System.nanoTime()
        a(i) = op(i)
        l(i) = System.nanoTime() - t0
        i += 1
      }
      nanos += System.nanoTime() - r0
      if (rounds == 0) System.arraycopy(a, 0, first, 0, n)
      else changed += (0 until n).count(j => a(j) != first(j))
      p50s += Stats.quantile(l, 0.5) / 1e3
      p99s += Stats.quantile(l, 0.99) / 1e3
      rounds += 1
    }

    /** The p50 is the mean over rounds of each round's median: lookups
      * that chase pointers switch between a fast and a slow level every few
      * rounds as other tenants load the host's memory system, and the mean
      * weighs both levels by the time spent in each, where one quantile
      * over all rounds would flip between them. The p99 is the median over
      * rounds of each round's 99th percentile: a single pause (a
      * collection, a late compilation) lifts one round's tail far more than
      * its median, and the median over rounds ignores it.
      */
    def result: Stream = {
      val ops = rounds * n
      Stream(p50s.result().sum / rounds, Stats.median(p99s.result().toSeq), ops / Stats.seconds(nanos),
        rounds, ops, keys(first), changed)
    }
  }

  /** At least `minRounds` whole rounds, until `budgetNanos` has passed. */
  def loop(n: Int, minRounds: Int, budgetNanos: Long)(op: Int => Summary): Stream = {
    val r = new Rounds(n, op)
    val start = System.nanoTime()
    while (r.rounds < minRounds || System.nanoTime() - start < budgetNanos) r.round()
    r.result
  }

  /** Whole rounds of two streams, at least one each, until `budgetNanos`
    * has passed. The stream that has run for less time runs next, so each
    * gets about half the time, in slices spread over all of it: the host's
    * speed drifts over seconds, and both streams see the same drift.
    */
  def interleave(x: Rounds, y: Rounds, budgetNanos: Long): Unit = {
    val start = System.nanoTime()
    while (x.rounds == 0 || y.rounds == 0 || System.nanoTime() - start < budgetNanos)
      if (x.nanos <= y.nanos) x.round() else y.round()
  }

  /** A stream's measurements and its first round's answer keys (null
    * where there is no data answer); `changed` counts later answers that
    * differ from the first round's for the same item.
    */
  final case class Stream(p50Us: Double, p99Us: Double, perSecond: Double, rounds: Int, ops: Int,
                          first: Array[Key], changed: Int) {
    def describe: String = f"$rounds rounds $ops ops p50 $p50Us%.2f us p99 $p99Us%.2f us"
  }

  /** The keys of answers, null where there is no data answer. */
  def keys(answers: Array[Summary]): Array[Key] = answers.map(a => if (a == null) null else Reference.keyOf(a))

  /** Failed operations of a stream: every round's answer to an item whose
    * first answer is wrong (a supported query answered with a missing or
    * unacceptable summary, or a data answer to another request), plus
    * every answer that changed after the first round.
    */
  def failures(s: Stream, expected: Array[Option[Set[Key]]]): Int = wrong(s.first, expected) * s.rounds + s.changed

  /** Answers, one per item, that are not as `expected`. */
  def wrong(answers: Array[Key], expected: Array[Option[Set[Key]]]): Int =
    answers.indices.count { i =>
      val a = answers(i)
      expected(i) match {
        case None => a != null
        case Some(keys) => a == null || !keys.contains(a)
      }
    }

  val WarmRequestRounds = 60
  val WarmFallbackRounds = 5

  /** Both streams over one engine: each is warmed up when the session is
    * made, and then measured in slices (see `interleave`).
    */
  final class Session(serve: Serve, log: Array[String], queries: Array[Key]) {
    private def op1(i: Int): Summary = serve.request(log(i))
    private def op2(i: Int): Summary = serve.fallback(queries(i))
    private val warm1 = loop(log.length, WarmRequestRounds, 0)(op1)
    private val warm2 = loop(queries.length, WarmFallbackRounds, 0)(op2)
    private val timed1 = new Rounds(log.length, op1)
    private val timed2 = new Rounds(queries.length, op2)

    def slice(nanos: Long): Unit = interleave(timed1, timed2, nanos)

    /** (warm 1, timed 1, warm 2, timed 2). */
    def streams: Seq[Stream] = Seq(warm1, timed1.result, warm2, timed2.result)
  }

  /** A Table III-style voice log with the generator's labels: the
    * deployment's observed request mix, scaled by `scale`, shuffled by
    * `seed`. Supported queries that name a punctuated value are left out
    * (see `namesPunctuatedValue`): the parser drops those values, so how
    * many fail would depend on the seed.
    */
  def voiceLog(vocab: Vocabulary, mix: Map[RequestType, Int], scale: Int,
               seed: Long): Array[(String, RequestType)] =
    QueryLogGen.generate(vocab, mix.map { case (k, v) => k -> v * scale }, seed)
      .filterNot { case (text, label) => label == RequestType.SQuery && namesPunctuatedValue(vocab, text) }
      .toArray
}

package repro.system

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.vocalize.SummaryFact

/** Tests for run-time lookup with most-specific-subset fallback (§III). */
class QueryEngineSpec extends AnyFunSuite {

  private def summary(target: String, preds: Map[String, String]): Summary =
    Summary(target, preds, Seq(SummaryFact(Map.empty, 1.0, 1L)), 1.0, 2.0,
      s"speech for $target ${preds.toSeq.sorted}")

  private val engine = new QueryEngine(Seq(
    summary("delay", Map.empty),
    summary("delay", Map("season" -> "Winter")),
    summary("delay", Map("region" -> "East")),
    summary("delay", Map("season" -> "Winter", "region" -> "East")),
    summary("cancelled", Map.empty)))

  test("exact lookup hits the precise subset") {
    val s = engine.lookup("delay", Map("season" -> "Winter")).get
    assert(s.predicates == Map("season" -> "Winter"))
  }

  test("exact lookup is predicate-order insensitive") {
    val s = engine.lookup("delay",
      Map("region" -> "East", "season" -> "Winter")).get
    assert(s.predicates.size == 2)
  }

  test("fallback selects the most specific containing subset") {
    // No speech for {season=Winter, region=West}: fall back to {season=Winter}.
    val s = engine.lookup("delay",
      Map("season" -> "Winter", "region" -> "West")).get
    assert(s.predicates == Map("season" -> "Winter"))
  }

  test("fallback to the overall speech when no predicate matches") {
    val s = engine.lookup("delay", Map("airline" -> "AA")).get
    assert(s.predicates.isEmpty)
  }

  test("fallback respects the target column") {
    val s = engine.lookup("cancelled", Map("season" -> "Winter")).get
    assert(s.target == "cancelled" && s.predicates.isEmpty)
  }

  test("unknown target yields no answer") {
    assert(engine.lookup("nope", Map.empty).isEmpty)
  }

  test("exact() does not fall back") {
    assert(engine.exact("delay", Map("season" -> "Winter", "region" -> "West")).isEmpty)
  }

  test("fallback prefers larger predicate subsets") {
    // Query {Winter, East, extra} → the 2-predicate speech wins over 1-pred.
    val s = engine.lookup("delay",
      Map("season" -> "Winter", "region" -> "East", "airline" -> "AA")).get
    assert(s.predicates.size == 2)
  }

  test("engine size reflects the summary count") {
    assert(engine.size == 5)
  }

  test("deterministic tie-break among equally specific speeches") {
    val e = new QueryEngine(Seq(
      summary("t", Map("a" -> "1")), summary("t", Map("b" -> "2"))))
    val s1 = e.lookup("t", Map("a" -> "1", "b" -> "2")).get
    val s2 = e.lookup("t", Map("a" -> "1", "b" -> "2")).get
    assert(s1.key == s2.key)
  }

  test("resolve reports exact hits, dropped predicates and misses") {
    import Resolution._
    assert(engine.resolve("delay", Map("season" -> "Winter")) ==
      Exact(summary("delay", Map("season" -> "Winter"))))
    assert(engine.resolve("delay", Map("season" -> "Winter", "region" -> "West")) ==
      Fallback(summary("delay", Map("season" -> "Winter")), 1))
    assert(engine.resolve("delay", Map("airline" -> "AA", "month" -> "May", "region" -> "West")) ==
      Fallback(summary("delay", Map.empty), 3))
    assert(engine.resolve("nope", Map("season" -> "Winter")) == Miss)
    assert(new QueryEngine(Seq(summary("t", Map("a" -> "1")))).resolve("t", Map("b" -> "2")) == Miss)
  }

  test("a 12-predicate query falls back to its most specific materialized subset") {
    val q = (1 to 12).map(i => s"d$i" -> s"v$i").toMap
    val s = engine.lookup("delay", q + ("season" -> "Winter") + ("region" -> "East")).get
    assert(s.predicates == Map("season" -> "Winter", "region" -> "East"))
    assert(engine.resolve("delay", q) == Resolution.Fallback(summary("delay", Map.empty), 12))
  }

  /** The lookup as a scan of every summary of the target, kept as the oracle. */
  private def scan(all: Seq[Summary], target: String, q: Map[String, String]): Option[Summary] =
    all.filter(s => s.target == target && s.predicates.toSet.subsetOf(q.toSet))
      .sortBy(s => (-s.predicates.size, s.key))
      .headOption

  test("keyed lookup equals the scan on 2,000 seeded random queries") {
    val rnd = new Random(14)
    val dims = (0 until 5).map(d => s"d$d")
    // A random sample of the subsets of up to 3 predicates, so many queries
    // fall back past missing subsets and tie among equally specific ones.
    def randomPredicates(n: Int, values: Int): Map[String, String] =
      rnd.shuffle(dims).take(n).map(d => d -> s"v${rnd.nextInt(values)}").toMap
    val all = (for {
      t <- Seq("t0", "t1", "t2")
      _ <- 0 until 60
    } yield summary(t, randomPredicates(rnd.nextInt(4), 3))).distinctBy(_.key)
    val e = new QueryEngine(all)
    assert(all.map(_.predicates.size).max == 3)
    val sizes = Array.fill(6)(0)
    var ties = 0
    (0 until 2000).foreach { i =>
      val t = Seq("t0", "t1", "t2", "unknown")(rnd.nextInt(4))
      // Values v0..v2 are materialized; v3 is in no summary.
      val q = randomPredicates(rnd.nextInt(6), 4)
      val expected = scan(all, t, q)
      assert(e.lookup(t, q) == expected, s"query $i: $t $q")
      sizes(q.size) += 1
      if (expected.exists(s => all.count(o => o.target == t &&
          o.predicates.size == s.predicates.size && o.predicates.toSet.subsetOf(q.toSet)) > 1)) ties += 1
    }
    assert(sizes.forall(_ > 0), sizes.mkString(","))
    assert(ties > 0)
  }
}

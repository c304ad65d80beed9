package repro.vocalize

import org.scalatest.funsuite.AnyFunSuite

/** Tests for speech rendering (§III templates, Table II style). */
class TemplatesSpec extends AnyFunSuite {

  private val style = TargetStyle.perThousand("persons identify as visually impaired")

  test("first fact uses the 'About …' template") {
    val s = SpeechTemplates.render(style, Map.empty,
      Seq(SummaryFact(Map("age_group" -> "elder"), 0.08, 100)))
    assert(s == "About 80 out of 1000 persons identify as visually impaired for elder.")
  }

  test("subsequent facts use the 'It is …' template") {
    val s = SpeechTemplates.render(style, Map.empty, Seq(
      SummaryFact(Map("age_group" -> "elder"), 0.08, 100),
      SummaryFact(Map("age_group" -> "adult"), 0.017, 100)))
    assert(s.contains("It is 17 out of 1000 for adult."))
  }

  test("empty scope renders as 'overall'") {
    val s = SpeechTemplates.render(style, Map.empty,
      Seq(SummaryFact(Map.empty, 0.035, 100)))
    assert(s.endsWith("overall."))
  }

  test("two-dimension scopes join values with 'and' (dim-name order)") {
    val s = SpeechTemplates.render(style, Map.empty,
      Seq(SummaryFact(Map("age_group" -> "teen", "borough" -> "Manhattan"), 0.003, 10)))
    assert(s.contains("for teen and Manhattan"))
  }

  test("query predicates produce the subset prefix (§III)") {
    val s = SpeechTemplates.render(style, Map("borough" -> "Queens"),
      Seq(SummaryFact(Map.empty, 0.02, 10)))
    assert(s.startsWith("Considering borough Queens. "))
  }

  test("no facts yields an apology") {
    val s = SpeechTemplates.render(style, Map.empty, Nil)
    assert(s.contains("No data"))
  }

  test("percent style formats probabilities") {
    val st = TargetStyle.percent("cancellation probability")
    assert(st.fmt(0.06) == "6%")
  }

  test("unit style formats with the unit name") {
    val st = TargetStyle.unit("minutes of delay", "minutes")
    assert(st.fmt(12.34) == "12.3 minutes")
  }

  test("numbers use a decimal point under a decimal-comma default locale") {
    val saved = java.util.Locale.getDefault
    java.util.Locale.setDefault(java.util.Locale.GERMANY)
    try {
      assert(TargetStyle.unit("minutes of delay", "minutes").fmt(12.5) == "12.5 minutes")
      assert(TargetStyle.plain("rating").fmt(12.5) == "12.5")
      assert(TargetStyles.forTarget("pct").fmt(12.5) == "12.5 percent")
    } finally java.util.Locale.setDefault(saved)
  }

  test("plain style formats one decimal") {
    assert(TargetStyle.plain("rating").fmt(7.25) == "7.3")
  }

  test("styles registry resolves known targets") {
    assert(TargetStyles.forTarget("cancelled").phrase.contains("cancellation"))
    assert(TargetStyles.forTarget("visual").phrase.contains("visually"))
    assert(TargetStyles.forTarget("job_sat").phrase.contains("satisfaction"))
  }

  test("styles registry falls back to a plain style") {
    val st = TargetStyles.forTarget("mystery_metric")
    assert(st.phrase == "mystery_metric")
  }

  test("a three-fact ACS speech reads like Table II") {
    val style = TargetStyles.forTarget("visual")
    val s = SpeechTemplates.render(style, Map.empty, Seq(
      SummaryFact(Map("age_group" -> "elder"), 0.080, 100),
      SummaryFact(Map("age_group" -> "adult"), 0.017, 100),
      SummaryFact(Map("age_group" -> "teen", "borough" -> "Manhattan"), 0.003, 10)))
    assert(s == "About 80 out of 1000 persons identify as visually impaired for elder. " +
      "It is 17 out of 1000 for adult. It is 3 out of 1000 for teen and Manhattan.")
  }
}

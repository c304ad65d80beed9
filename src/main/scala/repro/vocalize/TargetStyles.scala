package repro.vocalize

import java.util.Locale

/** Static registry mapping known target columns to speech styles — a plain
  * object lookup so executor tasks can resolve styles without shipping
  * function-valued closures.
  */
object TargetStyles {

  def forTarget(target: String): TargetStyle = target match {
    // Flights
    case "delay"     => TargetStyle.unit("minutes of delay", "minutes")
    case "cancelled" => TargetStyle.percent("cancellation probability")
    // ACS (0/1 indicators → per-1000 prevalence, Table II style)
    case "hearing"     => TargetStyle.perThousand("persons identify as hearing impaired")
    case "visual"      => TargetStyle.perThousand("persons identify as visually impaired")
    case "cognitive"   => TargetStyle.perThousand("persons identify as cognitively impaired")
    case "ambulatory"  => TargetStyle.perThousand("persons report an ambulatory difficulty")
    case "selfcare"    => TargetStyle.perThousand("persons report a self-care difficulty")
    case "independent" => TargetStyle.perThousand("persons report an independent-living difficulty")
    // Stack Overflow
    case "competence" => TargetStyle.plain("competence rating")
    case "optimism"   => TargetStyle.plain("optimism rating")
    case "job_sat"    => TargetStyle.plain("job satisfaction rating")
    case "salary"     => TargetStyle.unit("average salary", "dollars")
    case "years_code" => TargetStyle.unit("years of coding experience", "years")
    case "work_week"  => TargetStyle.unit("working hours per week", "hours")
    // Primaries
    case "pct" => TargetStyle("percent poll share", v => "%.1f percent".formatLocal(Locale.ROOT, v))
    case other => TargetStyle.plain(other)
  }
}

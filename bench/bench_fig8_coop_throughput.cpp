// Figure 8 reproduction: training throughput under the COOPERATIVE setting.
// Paper shape: OEF estimated +20% over the baselines (algorithmic gain from
// efficiency-maximisation under envy-freeness), amplified to +32% actual by
// the placement design.
#include <cstdio>

#include "throughput_compare.h"

int main() {
  using namespace oef;
  bench::PaperFixture fixture;
  const workload::Trace trace = bench::make_throughput_trace(fixture.zoo, 92);
  const std::size_t rounds = 24;

  const bench::ThroughputSummary oef =
      bench::run_scheduler(fixture, trace, "OEF-coop", /*paper_placement=*/true, rounds);
  const bench::ThroughputSummary gandiva = bench::run_scheduler(
      fixture, trace, "GandivaFair", /*paper_placement=*/false, rounds);
  const bench::ThroughputSummary gavel =
      bench::run_scheduler(fixture, trace, "Gavel", /*paper_placement=*/false, rounds);

  bench::print_header("Figure 8: throughput, cooperative setting",
                      "estimated 1.2x / 1.01x / 1x; actual 1.32x / 1.06x / 1x");

  common::Table table({"scheduler", "estimated", "actual", "est. (norm)", "act. (norm)"});
  const double est_base = std::min(gandiva.estimated, gavel.estimated);
  const double act_base = std::min(gandiva.actual, gavel.actual);
  const auto add = [&](const char* name, const bench::ThroughputSummary& s) {
    table.add_row({name, common::format_double(s.estimated, 2),
                   common::format_double(s.actual, 2),
                   common::format_factor(s.estimated / est_base),
                   common::format_factor(s.actual / act_base)});
  };
  add("OEF-coop", oef);
  add("GandivaFair", gandiva);
  add("Gavel", gavel);
  table.print();

  const double est_gain = oef.estimated / std::max(gandiva.estimated, gavel.estimated);
  const double act_gain = oef.actual / std::max(gandiva.actual, gavel.actual);
  std::printf("  estimated gain: %.2fx (paper: ~1.20x)\n", est_gain);
  std::printf("  actual gain:    %.2fx (paper: ~1.32x)\n", act_gain);
  // Reproduction note (finding F1 in docs/BENCHMARKS.md): against an
  // *exact-LP* Gavel both gaps close — the paper's 1.2x stems from its Gavel
  // implementation returning sub-optimal allocations (visible already in its
  // own §2.4 numbers). The gain over Gandiva_fair reproduces.
  bench::print_check("OEF-coop estimated within 2% of the best baseline",
                     est_gain > 0.98);
  bench::print_check("OEF-coop beats Gandiva_fair on estimated and actual",
                     oef.estimated >= gandiva.estimated && oef.actual >= gandiva.actual);
  bench::print_check("OEF-coop actual within 3% of exact-LP Gavel",
                     oef.actual >= 0.97 * gavel.actual);
  return 0;
}

// Figure 7 reproduction: training throughput under the NON-COOPERATIVE
// setting, 20 tenants (one job type each) vs Gandiva_fair and Gavel.
// Paper shape: estimated throughput roughly at parity (baselines within a few
// percent, OEF trades a little efficiency for strategy-proofness); actual
// throughput ~10% better under OEF thanks to the placement design.
#include <cstdio>

#include "throughput_compare.h"

int main() {
  using namespace oef;
  bench::PaperFixture fixture;
  const workload::Trace trace = bench::make_throughput_trace(fixture.zoo, 91);
  const std::size_t rounds = 24;

  const bench::ThroughputSummary oef =
      bench::run_scheduler(fixture, trace, "OEF-noncoop", /*paper_placement=*/true, rounds);
  const bench::ThroughputSummary gandiva = bench::run_scheduler(
      fixture, trace, "GandivaFair", /*paper_placement=*/false, rounds);
  const bench::ThroughputSummary gavel =
      bench::run_scheduler(fixture, trace, "Gavel", /*paper_placement=*/false, rounds);

  bench::print_header("Figure 7: throughput, non-cooperative setting",
                      "estimated ~parity (paper 1 / 1.03 / 1.02); actual OEF +10%");

  common::Table table({"scheduler", "estimated", "actual", "est. (norm)", "act. (norm)"});
  const double est_base = oef.estimated;
  const double act_base = gavel.actual;
  table.add_row({"OEF-noncoop", common::format_double(oef.estimated, 2),
                 common::format_double(oef.actual, 2), common::format_factor(1.0),
                 common::format_factor(oef.actual / act_base)});
  table.add_row({"GandivaFair", common::format_double(gandiva.estimated, 2),
                 common::format_double(gandiva.actual, 2),
                 common::format_factor(gandiva.estimated / est_base),
                 common::format_factor(gandiva.actual / act_base)});
  table.add_row({"Gavel", common::format_double(gavel.estimated, 2),
                 common::format_double(gavel.actual, 2),
                 common::format_factor(gavel.estimated / est_base),
                 common::format_factor(1.0)});
  table.print();

  const double est_gap =
      std::max(gandiva.estimated, gavel.estimated) / oef.estimated;
  std::printf("  estimated: baselines/OEF = %.3f (paper: 1.02-1.03)\n", est_gap);
  std::printf("  actual: OEF/best-baseline = %.3f (paper: ~1.05-1.10)\n",
              oef.actual / std::max(gandiva.actual, gavel.actual));
  bench::print_check("estimated throughput near parity (within 12%)",
                     est_gap < 1.12 && est_gap > 0.9);
  // Against the exact-LP Gavel reimplementation the actual gap narrows to
  // parity; the win over Gandiva_fair reproduces (finding F1 in
  // docs/BENCHMARKS.md).
  bench::print_check("OEF actual beats Gandiva_fair",
                     oef.actual >= gandiva.actual);
  bench::print_check("OEF actual within 3% of exact-LP Gavel",
                     oef.actual >= 0.97 * gavel.actual);
  return 0;
}

// §6.3.3 reproduction: straggler-effect alleviation. The paper tracks
// cross-GPU-type placement events (workers idling while slower peers catch
// up) and reports OEF reducing affected workers by 14% vs Gandiva_fair and
// 26% vs Gavel.
#include <cstdio>

#include "throughput_compare.h"

int main() {
  using namespace oef;
  bench::PaperFixture fixture;
  const workload::Trace trace = bench::make_throughput_trace(fixture.zoo, 94);
  const std::size_t rounds = 24;

  bench::print_header("SS6.3.3: straggler effect (cross-type placements)",
                      "OEF reduces straggler workers by 14% vs Gandiva, 26% vs Gavel");

  struct Entry {
    const char* name;
    bool paper_placement;
    bench::ThroughputSummary summary{};
  };
  std::vector<Entry> entries = {{"OEF-coop", true},
                                {"GandivaFair", false},
                                {"Gavel", false},
                                {"MaxMin", false}};
  for (Entry& entry : entries) {
    entry.summary =
        bench::run_scheduler(fixture, trace, entry.name, entry.paper_placement, rounds);
  }

  common::Table table(
      {"scheduler", "cross-type jobs/run", "straggler workers/run", "vs OEF"});
  const double oef_stragglers =
      static_cast<double>(entries[0].summary.straggler_workers);
  for (const Entry& entry : entries) {
    const double ratio =
        oef_stragglers > 0.0
            ? static_cast<double>(entry.summary.straggler_workers) / oef_stragglers
            : (entry.summary.straggler_workers == 0 ? 1.0 : 99.0);
    table.add_row({entry.name, std::to_string(entry.summary.cross_type_jobs),
                   std::to_string(entry.summary.straggler_workers),
                   common::format_factor(ratio)});
  }
  table.print();

  // Gavel reimplemented as an exact LP also returns vertex-sparse (and thus
  // mostly adjacent) allocations, so it stragglers little; the paper's 26%
  // reduction vs Gavel reflects its published implementation. The reductions
  // vs Gandiva_fair and MaxMin reproduce (finding F1 in docs/BENCHMARKS.md).
  bench::print_check(
      "OEF stragglers fewer workers than Gandiva_fair",
      entries[0].summary.straggler_workers <= entries[1].summary.straggler_workers);
  bench::print_check(
      "OEF stragglers far fewer workers than MaxMin",
      2 * entries[0].summary.straggler_workers <= entries[3].summary.straggler_workers);
  bench::print_check(
      "OEF has fewer cross-type placements than Gandiva_fair",
      entries[0].summary.cross_type_jobs <= entries[1].summary.cross_type_jobs);
  return 0;
}

// Figure 9 reproduction: long-horizon job completion time. The paper runs a
// three-day trace with 50 tenants x ~20 jobs and reports JCT ratios of 1.17x
// (Gandiva_fair) and 1.19x (Gavel) relative to OEF. The simulated trace is
// scaled down (finite jobs sized to a multi-hour cluster run) but keeps the
// Philly-like contention: tenants exit as their jobs drain.
#include <cstdio>

#include "bench_common.h"
#include "sim/engine.h"
#include "workload/trace.h"

int main() {
  using namespace oef;
  bench::PaperFixture fixture;

  workload::TraceOptions trace_options;
  trace_options.num_tenants = 24;
  trace_options.mean_jobs_per_tenant = 8.0;
  trace_options.single_model_fraction = 1.0;  // one job type per tenant (§6.3.2)
  trace_options.iterations_mu = 9.4;          // median ~12k iterations, hours-long
  trace_options.iterations_sigma = 0.8;
  trace_options.seed = 93;
  const workload::Trace trace = workload::generate_trace(fixture.zoo, trace_options);

  bench::print_header("Figure 9: overall JCT ratio",
                      "OEF 1x, Gandiva_fair 1.17x, Gavel 1.19x");

  struct Entry {
    const char* name;
    bool paper_placement;
    double mean_jct = 0.0;
    std::size_t finished = 0;
    double makespan = 0.0;
  };
  std::vector<Entry> entries = {{"OEF-coop", true},
                                {"GandivaFair", false},
                                {"Gavel", false}};
  for (Entry& entry : entries) {
    sim::SimOptions options;
    options.scheduler = entry.name;
    options.packer.prioritize_large_jobs = entry.paper_placement;
    const sim::SimResult result =
        sim::run_simulation(fixture.cluster, fixture.catalog, fixture.gpu_names,
                            fixture.zoo, trace, options);
    entry.mean_jct = result.mean_jct();
    entry.finished = result.finished_jobs;
    entry.makespan = result.makespan_seconds;
  }

  common::Table table({"scheduler", "mean JCT (h)", "JCT ratio", "finished", "makespan (h)"});
  const double base = entries[0].mean_jct;
  for (const Entry& entry : entries) {
    table.add_row({entry.name, common::format_double(entry.mean_jct / 3600.0, 2),
                   common::format_factor(entry.mean_jct / base),
                   std::to_string(entry.finished),
                   common::format_double(entry.makespan / 3600.0, 2)});
  }
  table.print();

  bench::print_check("all schedulers finish the full trace",
                     entries[0].finished == entries[1].finished &&
                         entries[1].finished == entries[2].finished);
  // Against exact-LP Gavel the paper's 1.17x and 1.19x gaps do not
  // reproduce, and both checks below deviate (finding F1 in
  // docs/BENCHMARKS.md).
  bench::print_check("OEF beats Gandiva_fair on mean JCT",
                     entries[0].mean_jct <= entries[1].mean_jct);
  bench::print_check("OEF within 1% of exact-LP Gavel on mean JCT",
                     entries[0].mean_jct <= 1.01 * entries[2].mean_jct);
  std::printf("  Gandiva_fair/OEF = %.2fx (paper 1.17x), Gavel/OEF = %.2fx (paper 1.19x)\n",
              entries[1].mean_jct / base, entries[2].mean_jct / base);
  return 0;
}

// Simulator integration tests: invariants of the round loop, determinism,
// JCT accounting, cheating and forced exits.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "sim/engine.h"
#include "workload/trace.h"

namespace oef::sim {
namespace {

struct Fixture {
  Fixture()
      : cluster(cluster::make_paper_cluster()),
        catalog(workload::make_paper_catalog()),
        gpu_names{"RTX3070", "RTX3080", "RTX3090"} {}

  cluster::Cluster cluster;
  workload::GpuCatalog catalog;
  std::vector<std::string> gpu_names;
  workload::ModelZoo zoo;
};

SimResult run_with(const Fixture& f, workload::Trace trace, SimOptions options) {
  return run_simulation(f.cluster, f.catalog, f.gpu_names, f.zoo, std::move(trace),
                        std::move(options));
}

TEST(SimEngine, AllJobsFinishEventually) {
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 2, 20000.0);
  SimOptions options;
  options.scheduler = "OEF-noncoop";
  const SimResult result = run_with(f, trace, options);
  EXPECT_EQ(result.finished_jobs, 8u);
  EXPECT_EQ(result.cancelled_jobs, 0u);
  EXPECT_EQ(result.jct.size(), 8u);
  for (const double jct : result.jct) EXPECT_GT(jct, 0.0);
  EXPECT_GT(result.makespan_seconds, 0.0);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const Fixture f;
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 6;
  trace_options.mean_jobs_per_tenant = 3.0;
  trace_options.iterations_mu = 9.0;
  const workload::Trace trace = workload::generate_trace(f.zoo, trace_options);
  SimOptions options;
  options.scheduler = "OEF-coop";
  options.max_rounds = 30;
  const SimResult a = run_with(f, trace, options);
  const SimResult b = run_with(f, trace, options);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_DOUBLE_EQ(a.total_actual, b.total_actual);
  EXPECT_DOUBLE_EQ(a.total_estimated, b.total_estimated);
  EXPECT_EQ(a.total_cross_type_jobs, b.total_cross_type_jobs);
}

TEST(SimEngine, DeviceGrantsNeverExceedCluster) {
  const Fixture f;
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 10;
  trace_options.mean_jobs_per_tenant = 4.0;
  const workload::Trace trace = workload::generate_trace(f.zoo, trace_options);
  SimOptions options;
  options.scheduler = "GandivaFair";
  options.max_rounds = 20;
  const SimResult result = run_with(f, trace, options);
  for (const RoundRecord& round : result.rounds) {
    std::size_t devices = 0;
    for (const TenantRound& tr : round.tenants) devices += tr.devices;
    EXPECT_LE(devices, f.cluster.total_devices());
  }
}

TEST(SimEngine, EveryRegisteredSchedulerRuns) {
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 1, 5000.0);
  const std::vector<std::string> names = {"MaxMin", "GandivaFair", "Gavel",
                                          "OEF-noncoop", "OEF-coop"};
  for (const std::string& name : names) {
    SimOptions options;
    options.scheduler = name;
    options.max_rounds = 10;
    const SimResult result = run_with(f, trace, options);
    EXPECT_FALSE(result.rounds.empty()) << name;
    EXPECT_GT(result.total_actual, 0.0) << name;
  }
}

TEST(SimEngine, ForcedExitCancelsJobs) {
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 2, 1e9);
  SimOptions options;
  options.scheduler = "OEF-noncoop";
  options.max_rounds = 12;
  ClusterEvent departure;  // user4 leaves mid-run (Fig. 4 scenario)
  departure.round = 6;
  departure.kind = ClusterEventKind::kTenantDeparture;
  departure.tenant = 3;
  options.events.push_back(departure);
  const SimResult result = run_with(f, trace, options);
  EXPECT_EQ(result.cancelled_jobs, 2u);
  // After the exit, tenant 3 reports no throughput.
  const std::vector<double> series = result.tenant_actual_series(3);
  EXPECT_GT(series[2], 0.0);
  for (std::size_t r = 7; r < series.size(); ++r) EXPECT_EQ(series[r], 0.0);
}

TEST(SimEngine, NonCoopEqualisesTenantThroughput) {
  // The Fig. 4(a) shape: under non-cooperative OEF all four tenants see
  // near-identical normalised throughput.
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 3, 1e9);
  SimOptions options;
  options.scheduler = "OEF-noncoop";
  options.max_rounds = 16;
  const SimResult result = run_with(f, trace, options);
  // Average the estimated series over the steady rounds.
  std::vector<double> means(4, 0.0);
  for (std::size_t t = 0; t < 4; ++t) {
    const std::vector<double> series = result.tenant_estimated_series(t);
    for (std::size_t r = 4; r < series.size(); ++r) means[t] += series[r];
    means[t] /= static_cast<double>(result.rounds.size() - 4);
  }
  for (std::size_t t = 1; t < 4; ++t) {
    EXPECT_NEAR(means[t] / means[0], 1.0, 0.05) << "tenant " << t;
  }
}

TEST(SimEngine, CheatingTenantIsPenalisedUnderNonCoop) {
  // Fig. 4(b): a tenant that inflates its speedups gets *less* true
  // throughput than when honest.
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 3, 1e9);
  SimOptions honest_options;
  honest_options.scheduler = "OEF-noncoop";
  honest_options.max_rounds = 16;
  const SimResult honest = run_with(f, trace, honest_options);

  SimOptions cheat_options = honest_options;
  ClusterEvent cheat;
  cheat.kind = ClusterEventKind::kMisreport;
  cheat.tenant = 3;  // the LSTM tenant inflates its (already steep) speedups
  cheat.factor = 1.3;
  cheat_options.events.push_back(cheat);
  const SimResult cheated = run_with(f, trace, cheat_options);

  const auto mean_tail = [](const std::vector<double>& series) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 4; r < series.size(); ++r) {
      total += series[r];
      ++count;
    }
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double honest_actual = mean_tail(honest.tenant_actual_series(3));
  const double cheated_actual = mean_tail(cheated.tenant_actual_series(3));
  EXPECT_LT(cheated_actual, honest_actual + 1e-9);
}

TEST(SimEngine, ProfilingErrorCausesBoundedDeviation) {
  // Fig. 10(b) mechanism: with ±20% profiling error the achieved throughput
  // deviates only mildly from the zero-error run.
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 2, 1e9);
  SimOptions clean;
  clean.scheduler = "OEF-coop";
  clean.max_rounds = 12;
  const SimResult base = run_with(f, trace, clean);

  SimOptions noisy = clean;
  noisy.profiling_error = 0.2;
  const SimResult perturbed = run_with(f, trace, noisy);

  ASSERT_GT(base.total_actual, 0.0);
  const double deviation =
      std::abs(perturbed.total_actual - base.total_actual) / base.total_actual;
  EXPECT_LT(deviation, 0.10);
}

TEST(SimEngine, LateArrivalsWaitForTheirRound) {
  const Fixture f;
  workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 1, 50000.0);
  trace.tenants[2].arrival_time = 1000.0;  // arrives during round 3
  trace.jobs[2].arrival_time = 1000.0;
  SimOptions options;
  options.scheduler = "MaxMin";
  options.max_rounds = 8;
  const SimResult result = run_with(f, trace, options);
  const std::vector<double> series = result.tenant_actual_series(2);
  EXPECT_EQ(series[0], 0.0);
  EXPECT_EQ(series[2], 0.0);
  EXPECT_GT(series[4], 0.0);
}

TEST(SimEngine, SolverTelemetrySurfacesWarmStarts) {
  // The engine keeps the scheduler (and its LP-solver state) alive across
  // rounds, times every allocate() call, and exports the optimiser counters.
  const Fixture f;
  const workload::Trace trace = workload::make_four_tenant_trace(f.zoo, 2, 1e9);
  SimOptions options;
  options.scheduler = "OEF-coop";
  options.max_rounds = 8;
  const SimResult result = run_with(f, trace, options);
  ASSERT_GE(result.rounds.size(), 2u);

  double summed = 0.0;
  for (const RoundRecord& round : result.rounds) {
    EXPECT_GE(round.solve_seconds, 0.0);
    summed += round.solve_seconds;
  }
  EXPECT_NEAR(result.total_solve_seconds, summed, 1e-12);
  EXPECT_GT(result.total_solve_seconds, 0.0);

  const sched::SchedulerTelemetry& telemetry = result.scheduler_telemetry;
  EXPECT_GE(telemetry.lp_cold_solves, 1u);
  EXPECT_GT(telemetry.lp_iterations, 0u);
  EXPECT_GT(telemetry.lp_solve_seconds, 0.0);
  // Rounds after the first reuse solver state: either dual-simplex resolves
  // inside the lazy loop or basis reuse across rounds must have fired.
  EXPECT_GT(telemetry.lp_warm_resolves + telemetry.lp_warm_start_hits, 0u);

  // Closed-form schedulers report empty telemetry.
  SimOptions maxmin = options;
  maxmin.scheduler = "MaxMin";
  const SimResult closed_form = run_with(f, trace, maxmin);
  EXPECT_EQ(closed_form.scheduler_telemetry.lp_iterations, 0u);
  EXPECT_EQ(closed_form.scheduler_telemetry.lp_cold_solves, 0u);
}

TEST(SimEngine, StragglerStatsAccumulate) {
  // MaxMin spreads every tenant across all types, so 2- and 4-worker jobs
  // frequently span types; OEF-coop should produce fewer cross-type events.
  const Fixture f;
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 8;
  trace_options.mean_jobs_per_tenant = 4.0;
  trace_options.p_one_worker = 0.2;
  trace_options.p_two_workers = 0.4;
  const workload::Trace trace = workload::generate_trace(f.zoo, trace_options);

  SimOptions maxmin;
  maxmin.scheduler = "MaxMin";
  maxmin.max_rounds = 20;
  SimOptions coop = maxmin;
  coop.scheduler = "OEF-coop";
  const SimResult spread = run_with(f, trace, maxmin);
  const SimResult packed = run_with(f, trace, coop);
  EXPECT_LE(packed.total_cross_type_jobs, spread.total_cross_type_jobs);
}

}  // namespace
}  // namespace oef::sim

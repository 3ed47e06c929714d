// Robustness tests: dynamic-cluster churn, solver fault injection and the
// degradation ladder. The simulator must keep allocating — every round served,
// capacity-feasible against the *surviving* devices — through tenant churn,
// GPU failures and injected numerical breakdown, and the warm incremental
// path must agree with cold re-solves on what the allocation is worth.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/oef.h"
#include "core/properties.h"
#include "sched/oef_scheduler.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "solver/fault_injector.h"
#include "workload/gpu_catalog.h"
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

workload::Trace make_churn_trace(const workload::ModelZoo& zoo) {
  workload::TraceOptions options;
  options.num_tenants = 8;
  options.mean_jobs_per_tenant = 3.0;
  options.iterations_mu = 10.5;  // long jobs: the population persists
  options.seed = 11;
  return workload::generate_trace(zoo, options);
}

EventScheduleOptions heavy_churn(std::uint64_t seed) {
  EventScheduleOptions options;
  options.seed = seed;
  options.horizon_rounds = 25;
  options.tenant_arrival_rate = 0.10;
  options.tenant_departure_rate = 0.10;
  options.burst_rate = 0.10;
  options.failure_rate = 0.30;
  options.drift_rate = 0.10;
  options.recovery_rounds = 5;
  return options;
}

core::SpeedupMatrix make_instance(std::size_t n, std::size_t k, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    row.resize(k);
    row[0] = 1.0;
    for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  }
  return core::SpeedupMatrix(std::move(rows));
}

TEST(SimChurn, EventScheduleIsDeterministic) {
  const Fixture f;
  workload::Trace trace_a = make_churn_trace(f.zoo);
  workload::Trace trace_b = make_churn_trace(f.zoo);
  const EventScheduleOptions options = heavy_churn(99);
  const std::vector<ClusterEvent> a =
      generate_event_schedule(f.cluster, f.zoo, trace_a, options);
  const std::vector<ClusterEvent> b =
      generate_event_schedule(f.cluster, f.zoo, trace_b, options);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
  }
  EXPECT_EQ(trace_a.tenants.size(), trace_b.tenants.size());
  EXPECT_EQ(trace_a.jobs.size(), trace_b.jobs.size());
}

TEST(SimChurn, FailureHeavyRunServesEveryRoundWithinSurvivingCapacity) {
  const Fixture f;
  workload::Trace trace = make_churn_trace(f.zoo);
  SimOptions options;
  options.scheduler = "OEF-coop";
  options.max_rounds = 25;
  options.events = generate_event_schedule(f.cluster, f.zoo, trace, heavy_churn(7));
  // Injected numerical breakdown on top of the churn: forced basis
  // deficiencies and corrupted basis updates inside the LP engine.
  options.faults.basis_fault_rate = 0.5;
  options.faults.eta_corruption_rate = 0.05;

  const SimResult result =
      run_simulation(f.cluster, f.catalog, f.gpu_names, f.zoo, trace, options);

  ASSERT_FALSE(result.rounds.empty());
  const std::size_t total_devices = f.cluster.total_devices();
  bool saw_failure = false;
  for (const RoundRecord& round : result.rounds) {
    ASSERT_EQ(round.capacities.size(), f.cluster.num_gpu_types());
    const double surviving = std::accumulate(round.capacities.begin(),
                                             round.capacities.end(), 0.0);
    // Surviving + down must account for the whole inventory...
    EXPECT_DOUBLE_EQ(surviving + static_cast<double>(round.devices_down),
                     static_cast<double>(total_devices));
    if (round.devices_down > 0) saw_failure = true;
    // ...and what was handed out must fit what survived.
    std::size_t granted = 0;
    for (const TenantRound& tr : round.tenants) granted += tr.devices;
    EXPECT_LE(static_cast<double>(granted), surviving + 1e-9)
        << "round " << round.round;
  }
  EXPECT_TRUE(saw_failure) << "the heavy schedule should include failures";
  // The injected basis faults must have engaged basis repair without
  // aborting the process (reaching this line is the abort check).
  const sched::SchedulerTelemetry& telemetry = result.scheduler_telemetry;
  EXPECT_GT(telemetry.lp_basis_repairs, 0u);

  // Bit-identical on a second run: churn + fault injection are seeded.
  const SimResult again =
      run_simulation(f.cluster, f.catalog, f.gpu_names, f.zoo, trace, options);
  ASSERT_EQ(again.rounds.size(), result.rounds.size());
  EXPECT_DOUBLE_EQ(again.total_actual, result.total_actual);
  EXPECT_EQ(again.degraded_rounds, result.degraded_rounds);
  EXPECT_EQ(again.fallback_rounds, result.fallback_rounds);
}

TEST(SimChurn, WarmChurnObjectivesMatchColdSolves) {
  // One persistent allocator rides a churn sequence (departure, arrival,
  // capacity loss, mix drift, and a departure and an arrival in one call)
  // with stable user ids; a fresh allocator cold-solves every step. Every
  // step after the first starts from the previous basis, translated onto the
  // reshaped LP by id, and takes no cold pivot. Warm reuse is an
  // optimisation only: the objectives must agree to 1e-6, and every warm
  // allocation must be envy-free and satisfy sharing incentive.
  const std::size_t k = 3;
  const core::SpeedupMatrix base = make_instance(12, k, 42);
  const core::OefAllocator persistent = core::make_cooperative_oef();

  struct Step {
    std::vector<std::size_t> ids;      // stable identity per surviving row
    std::vector<double> capacities;
    double drift = 1.0;                // multiplier on the fastest type
  };
  std::vector<Step> steps;
  std::vector<std::size_t> all(12);
  std::iota(all.begin(), all.end(), 0);
  steps.push_back({all, {30.0, 40.0, 22.0}, 1.0});
  std::vector<std::size_t> departed = all;
  departed.erase(departed.begin() + 3);  // tenant 3 leaves
  steps.push_back({departed, {30.0, 40.0, 22.0}, 1.0});
  std::vector<std::size_t> arrived = departed;
  arrived.push_back(12);  // a new tenant joins
  steps.push_back({arrived, {30.0, 40.0, 22.0}, 1.0});
  steps.push_back({arrived, {30.0, 28.0, 22.0}, 1.0});   // host failure
  steps.push_back({arrived, {30.0, 28.0, 22.0}, 1.12});  // mix drift
  std::vector<std::size_t> swapped = arrived;
  swapped.erase(swapped.begin() + 5);  // tenant 5 leaves...
  swapped.push_back(13);               // ...as tenant 13 joins: n stays 12
  steps.push_back({swapped, {30.0, 28.0, 22.0}, 1.12});

  const core::SpeedupMatrix extended = make_instance(14, k, 43);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const Step& step = steps[s];
    std::vector<std::vector<double>> rows;
    for (const std::size_t id : step.ids) {
      std::vector<double> row;
      for (std::size_t j = 0; j < k; ++j) {
        const double w = id < 12 ? base.at(id, j) : extended.at(id, j);
        row.push_back(j + 1 == k ? w * step.drift : w);
      }
      rows.push_back(std::move(row));
    }
    const core::SpeedupMatrix speedups(rows);
    const std::vector<double> mult(step.ids.size(), 1.0);

    const std::size_t hits_before = persistent.solver_stats().warm_start_hits;
    const core::AllocationResult warm =
        persistent.allocate_weighted(speedups, mult, step.capacities, step.ids);
    const core::OefAllocator fresh = core::make_cooperative_oef();
    const core::AllocationResult cold =
        fresh.allocate_weighted(speedups, mult, step.capacities, step.ids);

    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_NEAR(warm.total_efficiency, cold.total_efficiency,
                1e-6 * (1.0 + std::abs(cold.total_efficiency)));
    EXPECT_TRUE(warm.allocation.respects_capacity(step.capacities, 1e-6));
    if (s == 0) continue;
    EXPECT_EQ(persistent.solver_stats().warm_start_hits, hits_before + 1);
    EXPECT_EQ(warm.cold_lp_iterations, 0u);
    EXPECT_TRUE(core::check_envy_freeness(speedups, warm.allocation, 1e-6).envy_free);
    EXPECT_TRUE(core::check_sharing_incentive(speedups, warm.allocation, step.capacities, 1e-6)
                    .sharing_incentive);
  }
}

TEST(SimChurn, InjectedFaultsEngageTheLadderWithoutAborting) {
  solver::FaultInjectorConfig config;
  config.seed = 1234;
  config.basis_fault_rate = 0.6;
  config.eta_corruption_rate = 0.25;
  solver::FaultInjector injector(config);

  core::OefOptions options;
  options.solver.fault_injector = &injector;
  const core::OefAllocator allocator = core::make_cooperative_oef(options);
  const core::SpeedupMatrix speedups = make_instance(20, 3, 7);
  const std::vector<double> capacities = {30.0, 40.0, 22.0};

  for (int call = 0; call < 5; ++call) {
    const core::AllocationResult result = allocator.allocate(speedups, capacities);
    ASSERT_TRUE(result.served()) << "call " << call;
    EXPECT_TRUE(result.allocation.respects_capacity(capacities, 1e-6));
  }
  // The injector fired...
  EXPECT_GT(injector.stats().basis_faults + injector.stats().eta_corruptions, 0u);
  // ...and the solver answered with basis repairs, not aborts.
  EXPECT_GT(allocator.solver_stats().basis_repairs, 0u);
}

TEST(SimChurn, PivotCountersAccountForFailedWarmAttempts) {
  // Drifting round-over-round calls under injected faults, so some warm
  // attempts fail and fall back (the rates are high because the primal
  // checks its basic values at every optimal exit, which catches most
  // corruptions first). The pivots of a failed attempt count too: every
  // pivot the solver takes must reach the result of the call that took it,
  // split into cold and warm work.
  solver::FaultInjectorConfig config;
  config.seed = 2024;
  config.eta_corruption_rate = 0.1;
  config.basis_fault_rate = 0.3;
  solver::FaultInjector injector(config);
  core::OefOptions options;
  options.solver.fault_injector = &injector;
  const core::OefAllocator allocator = core::make_cooperative_oef(options);

  const std::size_t n = 24;
  const std::size_t k = 3;
  const core::SpeedupMatrix base = make_instance(n, k, 17);
  std::vector<std::vector<double>> rows(n);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) rows[l].push_back(base.at(l, j));
  }
  const std::vector<double> capacities = {30.0, 40.0, 22.0};
  common::Rng rng(99);
  std::size_t reported = 0;
  std::size_t recovered_in_place = 0;
  for (int call = 0; call < 30; ++call) {
    for (auto& row : rows) {
      for (std::size_t j = 1; j < k; ++j) row[j] *= std::exp(rng.uniform(-0.03, 0.03));
    }
    const std::size_t cold_before = allocator.solver_stats().cold_solves;
    const core::AllocationResult result = allocator.allocate(core::SpeedupMatrix(rows), capacities);
    ASSERT_TRUE(result.served()) << "call " << call;
    EXPECT_EQ(result.lp_iterations, result.cold_lp_iterations + result.warm_lp_iterations)
        << "call " << call;
    EXPECT_EQ(result.compactions, result.warm_compactions) << "call " << call;
    reported += result.lp_iterations;
    if (result.certificate_failures > 0 && allocator.solver_stats().cold_solves == cold_before) {
      ++recovered_in_place;
    }
  }
  const solver::LpSolverStats& stats = allocator.solver_stats();
  EXPECT_EQ(reported, stats.total_iterations);
  // An optimum that fails its certificate is reoptimised from its own basis
  // before anything is solved cold; under eta corruption that recovers it.
  EXPECT_GT(stats.certificate_failures, 0u);
  EXPECT_GT(recovered_in_place, 0u);
  // No compaction was refused, so every cold solve after the first call's
  // first round followed a fallback.
  EXPECT_GT(stats.cold_solves, 1u);
}

TEST(SimChurn, DeadlineExpiryServesDegradedButFeasible) {
  core::OefOptions options;
  options.deadline = common::Deadline::after(1e-6);  // expires after the first relaxation
  options.seed_adjacent_envy_rows = false;
  const core::OefAllocator allocator = core::make_cooperative_oef(options);
  const core::SpeedupMatrix speedups = make_instance(24, 3, 21);
  const std::vector<double> capacities = {30.0, 40.0, 22.0};

  const core::AllocationResult result = allocator.allocate(speedups, capacities);
  ASSERT_TRUE(result.served());
  EXPECT_TRUE(result.allocation.respects_capacity(capacities, 1e-6));
  if (!result.ok()) {
    EXPECT_EQ(result.outcome, core::AllocationStatus::kDegraded);
    EXPECT_TRUE(result.deadline_expired);
  }
}

TEST(SimChurn, RoundCapServesDegradedButFeasible) {
  const core::SpeedupMatrix speedups = make_instance(20, 3, 5);
  const std::vector<double> capacities = {30.0, 40.0, 22.0};
  const core::AllocationResult full = core::make_cooperative_oef().allocate(speedups, capacities);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.lazy_rounds, 2u);

  // Stopped by the cap, the loop serves its last relaxation optimum and
  // reports the rounds it ran. A relaxation of the maximisation bounds the
  // converged optimum from above.
  core::OefOptions capped;
  capped.max_lazy_rounds = 2;
  const core::AllocationResult result =
      core::make_cooperative_oef(capped).allocate(speedups, capacities);
  EXPECT_EQ(result.outcome, core::AllocationStatus::kDegraded);
  EXPECT_EQ(result.lazy_rounds, 2u);
  EXPECT_FALSE(result.deadline_expired);
  EXPECT_TRUE(result.allocation.respects_capacity(capacities, 1e-6));
  EXPECT_GE(result.total_efficiency, full.total_efficiency - 1e-6 * full.total_efficiency);
}

TEST(SimChurn, SchedulerFallsBackToLastFeasibleWhenAllocatorFails) {
  // max_lazy_rounds = 0 makes every cooperative call fail outright, forcing
  // the scheduler's terminal rung: a served, capacity-feasible fallback.
  core::OefOptions broken;
  broken.max_lazy_rounds = 0;
  const sched::OefScheduler scheduler(core::OefAllocator::Mode::kCooperative, broken);
  const core::SpeedupMatrix speedups = make_instance(6, 3, 5);
  const std::vector<double> capacities = {8.0, 8.0, 8.0};

  const core::Allocation first = scheduler.allocate(speedups, capacities, {});
  EXPECT_TRUE(first.respects_capacity(capacities, 1e-9));
  EXPECT_EQ(scheduler.telemetry().fallback_rounds, 1u);

  // A device failure shrinks capacity; the fallback rescales the last
  // feasible allocation into the surviving envelope.
  const std::vector<double> shrunk = {8.0, 4.0, 8.0};
  const core::Allocation second = scheduler.allocate(speedups, shrunk, {});
  EXPECT_TRUE(second.respects_capacity(shrunk, 1e-9));
  EXPECT_EQ(scheduler.telemetry().fallback_rounds, 2u);
}

TEST(SimChurn, BoundaryErrorsThrowCheckErrorInsteadOfAborting) {
  const core::OefAllocator allocator = core::make_cooperative_oef();
  const core::SpeedupMatrix speedups = make_instance(4, 3, 3);
  const std::vector<double> mult(4, 1.0);
  // Wrong capacity arity is caller error at a module boundary: catchable.
  EXPECT_THROW(
      { (void)allocator.allocate_weighted(speedups, mult, {8.0, 8.0}); },
      common::CheckError);
  // A repeated user id likewise: two users would share one identity, so the
  // warm state keyed by id could not tell them apart.
  EXPECT_THROW(
      { (void)allocator.allocate_weighted(speedups, mult, {8.0, 8.0, 8.0}, {0, 1, 1, 3}); },
      common::CheckError);
  // Non-positive or infinite multiplicity likewise (an infinite one would
  // zero its user's envy-row coefficients).
  for (const double bad : {0.0, std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(
        {
          (void)allocator.allocate_weighted(speedups, {1.0, bad, 1.0, 1.0},
                                            {8.0, 8.0, 8.0});
        },
        common::CheckError);
  }
}

TEST(SimChurn, DefaultResultIsNotSolved) {
  const core::AllocationResult result;
  EXPECT_EQ(result.outcome, core::AllocationStatus::kNotSolved);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.served());
}

}  // namespace
}  // namespace oef::sim

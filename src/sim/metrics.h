// Simulation metrics: everything the §6 figures plot.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/scheduler.h"
#include "workload/job.h"

namespace oef::sim {

/// One tenant's view of one scheduling round.
struct TenantRound {
  workload::TenantId tenant = 0;
  /// w·x of the tenant's fractional share — the "estimated" series of
  /// Figs. 5a/7/8 (fair-share evaluator output, in slowest-GPU equivalents).
  double estimated = 0.0;
  /// Realised training throughput in slowest-GPU equivalents — the "actual"
  /// series (includes straggler, contention and migration effects).
  double actual = 0.0;
  /// Devices granted this round.
  std::size_t devices = 0;
};

struct RoundRecord {
  std::size_t round = 0;
  double time_seconds = 0.0;
  std::vector<TenantRound> tenants;
  std::size_t cross_type_jobs = 0;
  std::size_t cross_host_jobs = 0;
  std::size_t straggler_workers = 0;
  std::size_t migrated_jobs = 0;
  /// Wall-clock seconds the scheduler spent computing this round's shares
  /// (the Fig. 10a overhead quantity, measured in-situ).
  double solve_seconds = 0.0;
  /// Portion of solve_seconds spent inside the envy separation oracle
  /// (cooperative OEF; zero for schedulers without one).
  double oracle_seconds = 0.0;
  /// The surviving per-type capacities this round's shares were computed
  /// against (equals the cluster's full capacities when nothing is down).
  std::vector<double> capacities;
  /// Devices down due to unrecovered failures at this round.
  std::size_t devices_down = 0;
  /// Cluster events applied at the top of this round.
  std::size_t events_applied = 0;
  /// Scheduler degradation this round: served a non-converged (degraded) LP
  /// result / served the last-feasible fallback because the allocator failed.
  bool degraded = false;
  bool fallback = false;
};

struct SimResult {
  std::vector<RoundRecord> rounds;
  /// JCT (seconds) per finished job, in finish order.
  std::vector<double> jct;
  std::size_t finished_jobs = 0;
  std::size_t cancelled_jobs = 0;
  double makespan_seconds = 0.0;
  /// Rounds served degraded / from the scheduler fallback (see RoundRecord).
  std::size_t degraded_rounds = 0;
  std::size_t fallback_rounds = 0;

  /// Sum over rounds of per-round totals (for quick comparisons).
  double total_estimated = 0.0;
  double total_actual = 0.0;
  std::size_t total_cross_type_jobs = 0;
  std::size_t total_straggler_workers = 0;
  std::size_t total_migrations = 0;
  /// Scheduler-compute seconds summed over rounds, plus the scheduler's own
  /// cumulative optimiser counters (warm-start hits, pivots, ...).
  double total_solve_seconds = 0.0;
  sched::SchedulerTelemetry scheduler_telemetry;

  /// Mean of per-round tenant sums of actual throughput.
  [[nodiscard]] double mean_actual_per_round() const {
    return rounds.empty() ? 0.0 : total_actual / static_cast<double>(rounds.size());
  }
  [[nodiscard]] double mean_jct() const;
  /// Per-tenant time series of actual throughput (empty slots = 0).
  [[nodiscard]] std::vector<double> tenant_actual_series(workload::TenantId tenant) const;
  [[nodiscard]] std::vector<double> tenant_estimated_series(workload::TenantId tenant) const;
};

}  // namespace oef::sim

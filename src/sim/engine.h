// Round-based cluster simulator.
//
// Reproduces the paper's experimental loop (§3.2, §6.1): every round
// (kRoundSeconds, 5 minutes) the engine profiles the active tenants' job types,
// asks the configured scheduler for fractional shares, integralises them with
// the deviation rounder, packs devices onto hosts, and advances every placed
// job by its achieved throughput. The execution model charges the penalties
// the paper's placer is designed to avoid:
//   * cross-GPU-type worker groups run at the slowest member's speed
//     (straggler effect, §4.4),
//   * cross-host worker groups run at 0.85x and multi-GPU jobs scale at
//     0.95x per worker,
//   * device-set changes pay a 30 s checkpoint/restore migration cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "placement/packer.h"
#include "sim/events.h"
#include "sim/metrics.h"
#include "solver/fault_injector.h"
#include "workload/dl_models.h"
#include "workload/gpu_catalog.h"
#include "workload/job.h"
#include "workload/trace.h"

namespace oef::sim {

/// What an experiment varies. The round length (kRoundSeconds) and the
/// execution model's penalties (engine.cpp) are fixed, and the OEF
/// schedulers run on default OefOptions plus the fault injector below.
struct SimOptions {
  std::string scheduler = "OEF-coop";
  /// 0 = run until every job finishes (capped at 20000 rounds).
  std::size_t max_rounds = 0;

  placement::PackerOptions packer;

  /// Profiling error fed to the reported speedups (Fig. 10b).
  double profiling_error = 0.0;
  std::uint64_t seed = 1;

  /// Churn events applied at the top of their round (see sim/events.h):
  /// forced exits (Fig. 4a) are kTenantDeparture events, misreporting tenants
  /// (Fig. 4b) kMisreport events, and generate_event_schedule builds seeded
  /// dynamic-cluster schedules.
  std::vector<ClusterEvent> events;
  /// Deterministic solver-fault injection (eta corruption / forced basis
  /// deficiencies inside the LP engine), one seeded stream shared by every
  /// solver of the run; zero rates (the default) disable it.
  solver::FaultInjectorConfig faults;
  /// Bench arm: tear the scheduler down and rebuild it every round, so every
  /// solve runs cold (no warm basis, no recycled envy rows). Telemetry is
  /// accumulated across the per-round instances.
  bool cold_restart_scheduler = false;
};

class SimulationEngine {
 public:
  /// `gpu_names[t]` maps cluster GPU type t to a catalog entry; must be
  /// ordered slowest → fastest, matching the cluster's type order.
  SimulationEngine(const cluster::Cluster& cluster, const workload::GpuCatalog& catalog,
                   std::vector<std::string> gpu_names, const workload::ModelZoo& zoo,
                   workload::Trace trace, SimOptions options);

  /// Runs the simulation to completion and returns all metrics.
  [[nodiscard]] SimResult run();

 private:
  struct VirtualKey {
    workload::TenantId tenant;
    std::string model_name;
    auto operator<=>(const VirtualKey&) const = default;
  };

  [[nodiscard]] double job_reference_rate(const workload::Job& job) const;
  [[nodiscard]] std::vector<double> reported_speedups(const workload::Job& job) const;

  const cluster::Cluster* cluster_;
  const workload::GpuCatalog* catalog_;
  std::vector<std::string> gpu_names_;
  const workload::ModelZoo* zoo_;
  workload::Trace trace_;
  SimOptions options_;
  /// Churn state mutated by events during run(): misreports in effect
  /// (tenant, factor on every non-base GPU type; the §2.3.1 misreport model,
  /// values > 1 exaggerate) and per-type mix-drift multipliers applied to
  /// every reported speedup row.
  std::vector<std::pair<workload::TenantId, double>> misreports_;
  std::vector<double> type_drift_;
};

/// Convenience wrapper: construct, run, return.
[[nodiscard]] SimResult run_simulation(const cluster::Cluster& cluster,
                                       const workload::GpuCatalog& catalog,
                                       std::vector<std::string> gpu_names,
                                       const workload::ModelZoo& zoo, workload::Trace trace,
                                       SimOptions options);

}  // namespace oef::sim

// Dynamic-cluster events: the seeded churn schedule the robustness
// experiments replay against the simulator (docs/SCENARIOS.md).
//
// One ClusterEvent stream (SimOptions::events) carries every change to the
// cluster or its tenants: tenant arrival/departure (incl. the Fig. 4 forced
// exit), misreports (Fig. 4b), per-tenant demand bursts, GPU/host failure
// and recovery, and heterogeneity-mix drift. The engine
// applies the events due at the top of each round, before the scheduler runs,
// so a failure shrinks that very round's capacity vector and a departure
// frees its tenant's devices immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "workload/dl_models.h"
#include "workload/trace.h"

namespace oef::sim {

/// Length of one scheduling round in simulated seconds (§6.1.1's 5 minutes):
/// the engine's round clock and the generator's arrival timestamps both use
/// it, so they always agree.
inline constexpr double kRoundSeconds = 300.0;

enum class ClusterEventKind {
  /// A new tenant (with fresh jobs) joins. The generator appends the tenant
  /// and its jobs to the trace with arrival_time = round * kRoundSeconds; the
  /// event marks the round for bookkeeping.
  kTenantArrival,
  /// The tenant leaves; its unfinished jobs are cancelled and its devices
  /// freed (the Fig. 4 user-exit, generalised).
  kTenantDeparture,
  /// The tenant's scheduling weight is multiplied by `factor` for
  /// `duration_rounds` rounds (a demand burst / priority escalation).
  kDemandBurst,
  /// `devices` GPUs on `host` fail (0 = the whole host). Failed devices drop
  /// out of the capacity vector and the placement pool until recovered.
  kDeviceFailure,
  /// All failed devices on `host` come back.
  kDeviceRecovery,
  /// Heterogeneity-mix drift: the effective speedup of GPU type `gpu_type`
  /// is multiplied by `factor` from this round on (driver updates, thermal
  /// limits, hardware ageing — anything that shifts the speed ratios the
  /// allocator optimises over).
  kMixDrift,
  /// The tenant starts misreporting: speedups on non-base types are scaled
  /// by `factor` from this round on (the §2.3.1 misreport model; values > 1
  /// exaggerate).
  kMisreport,
};

[[nodiscard]] const char* to_string(ClusterEventKind kind);

struct ClusterEvent {
  /// Round index at whose start the event applies.
  std::size_t round = 0;
  ClusterEventKind kind = ClusterEventKind::kTenantArrival;
  /// Tenant events: the tenant id.
  workload::TenantId tenant = 0;
  /// Device events: the host, and how many of its devices fail (0 = all).
  cluster::HostId host = 0;
  std::size_t devices = 0;
  /// Mix drift: the affected GPU type.
  cluster::GpuTypeId gpu_type = 0;
  /// Burst / drift / misreport magnitude.
  double factor = 1.0;
  /// Burst length in rounds.
  std::size_t duration_rounds = 0;
};

/// Rates and shapes of a generated churn schedule. Arrival timestamps use
/// kRoundSeconds, the engine's round length; every arriving tenant brings
/// three jobs and every burst lasts five rounds (events.cpp).
struct EventScheduleOptions {
  std::uint64_t seed = 17;
  /// Rounds covered by the generated schedule.
  std::size_t horizon_rounds = 60;
  /// Per-round Bernoulli probabilities of each churn source.
  double tenant_arrival_rate = 0.05;
  double tenant_departure_rate = 0.05;
  double burst_rate = 0.05;
  double failure_rate = 0.05;
  double drift_rate = 0.02;
  /// Weight multiplier of a demand burst.
  double burst_factor = 3.0;
  /// Rounds a failed host stays down.
  std::size_t recovery_rounds = 8;
  /// Fraction of failures that take the whole host; the rest are partial
  /// (1-2 GPUs — the ECC/XID single-device case that dominates in practice).
  double whole_host_failure_fraction = 0.35;
  /// Lognormal sigma of one drift step (factor = exp(N(0, sigma))).
  double drift_sigma = 0.15;
  /// Lognormal parameters of arriving jobs' length in iterations.
  double arrival_iterations_mu = 9.0;
  double arrival_iterations_sigma = 0.8;
};

/// Generates a deterministic churn schedule over `options.horizon_rounds`.
/// Arriving tenants (and their jobs) are appended to `trace` so the engine's
/// normal arrival handling admits them; departures only ever name tenants
/// that are alive at that point in the schedule and never drop the population
/// below two; failures never take down the last healthy host. The returned
/// events are sorted by round.
[[nodiscard]] std::vector<ClusterEvent> generate_event_schedule(
    const cluster::Cluster& cluster, const workload::ModelZoo& zoo,
    workload::Trace& trace, const EventScheduleOptions& options);

}  // namespace oef::sim

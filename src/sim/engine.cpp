#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>

#include "common/check.h"
#include "common/clock.h"
#include "core/oef.h"
#include "core/speedup_matrix.h"
#include "placement/rounding.h"
#include "sched/registry.h"
#include "solver/fault_injector.h"
#include "workload/profiler.h"

namespace oef::sim {

namespace {

/// Execution model: a worker group spanning hosts runs at this fraction of
/// its speed, every worker of a multi-GPU job at kMultiGpuScaling, and a job
/// whose device set changed loses kMigrationSeconds of its round to
/// checkpoint/restore.
constexpr double kCrossHostPenalty = 0.85;
constexpr double kMultiGpuScaling = 0.95;
constexpr double kMigrationSeconds = 30.0;
/// Round cap when SimOptions::max_rounds is 0 (run until every job finishes).
constexpr std::size_t kHardRoundLimit = 20000;

/// Runtime state of one job inside the engine.
struct JobState {
  std::vector<cluster::DeviceId> last_devices;
  std::size_t last_run_round = 0;
  bool ever_ran = false;
  bool cancelled = false;
};

}  // namespace

SimulationEngine::SimulationEngine(const cluster::Cluster& cluster,
                                   const workload::GpuCatalog& catalog,
                                   std::vector<std::string> gpu_names,
                                   const workload::ModelZoo& zoo, workload::Trace trace,
                                   SimOptions options)
    : cluster_(&cluster),
      catalog_(&catalog),
      gpu_names_(std::move(gpu_names)),
      zoo_(&zoo),
      trace_(std::move(trace)),
      options_(std::move(options)) {
  OEF_CHECK(gpu_names_.size() == cluster_->num_gpu_types());
  for (const std::string& name : gpu_names_) {
    OEF_CHECK_MSG(catalog_->contains(name), "cluster GPU type missing from catalog");
  }
}

double SimulationEngine::job_reference_rate(const workload::Job& job) const {
  // Per-worker samples/s on the slowest GPU type: the normalisation base.
  return workload::throughput_samples_per_s(zoo_->get(job.model_name),
                                            catalog_->get(gpu_names_.front()),
                                            job.batch_size);
}

SimResult SimulationEngine::run() {
  SimResult result;
  const std::size_t k = cluster_->num_gpu_types();

  // Events apply in round order; same-round events keep their given order.
  std::vector<ClusterEvent> events = options_.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) {
                     return a.round < b.round;
                   });
  std::size_t next_event = 0;

  misreports_.clear();
  type_drift_.assign(k, 1.0);
  std::vector<char> device_up(cluster_->total_devices(), 1);
  /// Active demand bursts: tenant -> (weight factor, expiry round).
  std::map<workload::TenantId, std::pair<double, std::size_t>> bursts;

  // Solver-fault injection, threaded into the OEF schedulers' LP engine.
  // The injector outlives the scheduler (which holds a raw pointer to it).
  solver::FaultInjector injector(options_.faults);
  core::OefOptions oef_options;
  if (options_.faults.eta_corruption_rate > 0.0 || options_.faults.basis_fault_rate > 0.0) {
    oef_options.solver.fault_injector = &injector;
  }

  auto scheduler = sched::make_scheduler(options_.scheduler, oef_options);
  // Telemetry of schedulers already torn down by the cold-restart arm.
  sched::SchedulerTelemetry retired_telemetry;

  std::vector<workload::Job>& jobs = trace_.jobs;
  std::vector<JobState> job_state(jobs.size());

  placement::DeviationRounder rounder(0, k);
  std::map<VirtualKey, std::size_t> slot_of;
  placement::Packer packer(*cluster_, options_.packer);

  const std::size_t round_limit = options_.max_rounds > 0 ? options_.max_rounds : kHardRoundLimit;

  for (std::size_t round = 0; round < round_limit; ++round) {
    const double now = static_cast<double>(round) * kRoundSeconds;

    // Apply the churn events due this round, before anything else: a failure
    // shrinks this very round's capacity vector, a departure frees its
    // tenant's devices immediately.
    std::size_t events_applied = 0;
    for (; next_event < events.size() && events[next_event].round <= round;
         ++next_event) {
      const ClusterEvent& event = events[next_event];
      ++events_applied;
      switch (event.kind) {
        case ClusterEventKind::kTenantArrival:
          // Admission happens through the trace's arrival_time below; the
          // event only marks the round.
          break;
        case ClusterEventKind::kTenantDeparture:
          if (event.tenant < trace_.tenants.size()) {
            for (const workload::JobId job_id : trace_.tenants[event.tenant].jobs) {
              if (!jobs[job_id].finished()) {
                jobs[job_id].state = workload::JobState::kFinished;
                job_state[job_id].cancelled = true;
                ++result.cancelled_jobs;
              }
            }
          }
          break;
        case ClusterEventKind::kDemandBurst:
          bursts[event.tenant] = {event.factor, round + event.duration_rounds};
          break;
        case ClusterEventKind::kDeviceFailure: {
          const cluster::Host& host = cluster_->host(event.host);
          std::size_t to_fail = event.devices == 0 ? host.devices.size() : event.devices;
          for (const cluster::DeviceId id : host.devices) {
            if (to_fail == 0) break;
            if (device_up[id]) {
              device_up[id] = 0;
              --to_fail;
            }
          }
          break;
        }
        case ClusterEventKind::kDeviceRecovery:
          for (const cluster::DeviceId id : cluster_->host(event.host).devices) {
            device_up[id] = 1;
          }
          break;
        case ClusterEventKind::kMixDrift:
          if (event.gpu_type < k) {
            type_drift_[event.gpu_type] =
                std::clamp(type_drift_[event.gpu_type] * event.factor, 0.05, 20.0);
          }
          break;
        case ClusterEventKind::kMisreport:
          misreports_.push_back({event.tenant, event.factor});
          break;
      }
    }
    // Expire finished bursts.
    for (auto it = bursts.begin(); it != bursts.end();) {
      it = round >= it->second.second ? bursts.erase(it) : std::next(it);
    }

    // Surviving per-type capacities after failures/recoveries.
    std::vector<double> capacities(k, 0.0);
    std::size_t devices_down = 0;
    for (const cluster::Device& device : cluster_->devices()) {
      if (device_up[device.id]) {
        capacities[device.gpu_type] += 1.0;
      } else {
        ++devices_down;
      }
    }

    // Collect active jobs grouped by (tenant, model): the virtual users.
    std::map<VirtualKey, std::vector<workload::Job*>> active;
    bool any_future_arrival = false;
    for (workload::Job& job : jobs) {
      if (job.finished()) continue;
      if (job.arrival_time > now || trace_.tenants[job.tenant].arrival_time > now) {
        any_future_arrival = true;
        continue;
      }
      active[{job.tenant, job.model_name}].push_back(&job);
    }
    if (active.empty()) {
      if (!any_future_arrival) break;
      RoundRecord idle;
      idle.round = round;
      idle.time_seconds = now;
      idle.capacities = capacities;
      idle.devices_down = devices_down;
      idle.events_applied = events_applied;
      result.rounds.push_back(std::move(idle));
      continue;
    }

    // Virtual-user table for this round (deterministic order: map is sorted).
    std::vector<VirtualKey> keys;
    std::vector<std::vector<double>> reported_rows;
    std::vector<double> multiplicities;
    std::map<workload::TenantId, std::size_t> types_per_tenant;
    for (const auto& [key, job_list] : active) ++types_per_tenant[key.tenant];
    for (auto& [key, job_list] : active) {
      // Jobs in starvation order: least-recently-run first.
      std::sort(job_list.begin(), job_list.end(),
                [&](const workload::Job* a, const workload::Job* b) {
                  const JobState& sa = job_state[a->id];
                  const JobState& sb = job_state[b->id];
                  const std::size_t ra = sa.ever_ran ? sa.last_run_round + 1 : 0;
                  const std::size_t rb = sb.ever_ran ? sb.last_run_round + 1 : 0;
                  if (ra != rb) return ra < rb;
                  return a->id < b->id;
                });
      keys.push_back(key);
      // Speedups come from a stable representative (lowest job id), not the
      // starvation-ordered front: the front job rotates as the round-robin
      // progresses, and since batch sizes differ across a group's jobs, tying
      // the reported row to it would jitter the LP's coefficients every round
      // and defeat the cross-round warm start even on an event-free round.
      const workload::Job* representative =
          *std::min_element(job_list.begin(), job_list.end(),
                            [](const workload::Job* a, const workload::Job* b) {
                              return a->id < b->id;
                            });
      reported_rows.push_back(reported_speedups(*representative));
      multiplicities.push_back(trace_.tenants[key.tenant].weight /
                               static_cast<double>(types_per_tenant[key.tenant]));
    }
    const core::SpeedupMatrix reported(reported_rows);

    // Demand bursts scale the affected tenants' weights for their duration.
    for (std::size_t v = 0; v < keys.size(); ++v) {
      const auto it = bursts.find(keys[v].tenant);
      if (it != bursts.end()) multiplicities[v] *= it->second.first;
    }

    // Stable rounder slots per virtual user — assigned before the solve so
    // they double as stable identities: the scheduler's identity-keyed warm
    // state (OEF's recycled envy pool) survives tenant churn.
    std::vector<std::size_t> slots(keys.size());
    for (std::size_t v = 0; v < keys.size(); ++v) {
      const auto [it, inserted] = slot_of.emplace(keys[v], slot_of.size());
      slots[v] = it->second;
      if (inserted) rounder.resize(slot_of.size());
    }

    // Fair shares from the configured scheduler. The scheduler object (and
    // with it any warm LP-solver state) lives across all rounds of the run,
    // so round r+1's solve starts from round r's optimal basis. The
    // telemetry delta splits this round's compute between LP pricing and
    // envy separation, and flags degradation (non-converged results served,
    // fallback allocations) per round.
    const sched::SchedulerTelemetry telemetry_before = scheduler->telemetry();
    const double solve_start = common::monotonic_seconds();
    const core::Allocation shares =
        scheduler->allocate(reported, capacities, multiplicities, slots);
    const double solve_seconds =
        common::monotonic_seconds() - solve_start;
    const sched::SchedulerTelemetry telemetry_after = scheduler->telemetry();
    const double oracle_seconds =
        telemetry_after.oracle_seconds - telemetry_before.oracle_seconds;
    result.total_solve_seconds += solve_seconds;
    core::Allocation slot_ideal(slot_of.size(), k);
    std::vector<std::size_t> slot_min_demand(slot_of.size(), 0);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      std::size_t min_workers = SIZE_MAX;
      for (const workload::Job* job : active[keys[v]]) {
        min_workers = std::min(min_workers, job->num_workers);
      }
      slot_min_demand[slots[v]] = min_workers;
      for (std::size_t j = 0; j < k; ++j) slot_ideal.at(slots[v], j) = shares.at(v, j);
    }
    // Inactive slots keep a zero ideal and an effectively infinite demand so
    // they are floored to zero and their devices freed.
    for (auto& demand : slot_min_demand) {
      if (demand == 0) demand = SIZE_MAX;
    }
    const std::vector<std::vector<int>> grants =
        rounder.round(slot_ideal, capacities, slot_min_demand);

    // Pack devices.
    std::vector<placement::UserPackRequest> requests(keys.size());
    for (std::size_t v = 0; v < keys.size(); ++v) {
      requests[v].grant = grants[slots[v]];
      for (const workload::Job* job : active[keys[v]]) requests[v].jobs.push_back(job);
    }
    const placement::PlacementPlan plan = packer.pack(requests, device_up);

    // Execute the round.
    RoundRecord record;
    record.round = round;
    record.time_seconds = now;
    record.solve_seconds = solve_seconds;
    record.oracle_seconds = oracle_seconds;
    record.capacities = capacities;
    record.devices_down = devices_down;
    record.events_applied = events_applied;
    record.degraded = telemetry_after.degraded_rounds > telemetry_before.degraded_rounds;
    record.fallback = telemetry_after.fallback_rounds > telemetry_before.fallback_rounds;
    if (record.degraded) ++result.degraded_rounds;
    if (record.fallback) ++result.fallback_rounds;
    record.cross_type_jobs = plan.cross_type_jobs;
    record.cross_host_jobs = plan.cross_host_jobs;
    record.straggler_workers = plan.straggler_workers;

    std::map<workload::TenantId, TenantRound> tenant_rounds;
    for (std::size_t v = 0; v < keys.size(); ++v) {
      TenantRound& tr = tenant_rounds[keys[v].tenant];
      tr.tenant = keys[v].tenant;
      tr.estimated += reported.dot(v, shares.row(v));
      for (std::size_t j = 0; j < k; ++j) {
        tr.devices += static_cast<std::size_t>(grants[slots[v]][j]);
      }
    }

    for (const placement::JobPlacement& placement : plan.placements) {
      workload::Job& job = jobs[placement.job];
      JobState& state = job_state[placement.job];

      std::vector<cluster::DeviceId> devices = placement.devices;
      std::sort(devices.begin(), devices.end());
      const bool migrated = state.ever_ran && devices != state.last_devices;
      if (migrated) ++record.migrated_jobs;

      const workload::DlModelSpec& model = zoo_->get(job.model_name);
      const workload::GpuSpec& slowest_spec =
          catalog_->get(gpu_names_[placement.slowest_type]);
      double per_worker_rate =
          workload::throughput_samples_per_s(model, slowest_spec, job.batch_size);
      if (placement.cross_host) per_worker_rate *= kCrossHostPenalty;
      if (job.num_workers > 1) per_worker_rate *= kMultiGpuScaling;
      const double steps_per_s = per_worker_rate / static_cast<double>(job.batch_size);

      const double migration_delay = migrated ? kMigrationSeconds : 0.0;
      const double effective_seconds = std::max(0.0, kRoundSeconds - migration_delay);
      const double steps_possible = steps_per_s * effective_seconds;
      const double steps_needed = job.remaining_iterations();

      double busy_fraction = 1.0;
      if (steps_possible >= steps_needed) {
        // Finishes mid-round.
        const double finish_delay = migration_delay + steps_needed / steps_per_s;
        job.completed_iterations = job.total_iterations;
        job.finish_time = now + finish_delay;
        job.state = workload::JobState::kFinished;
        result.jct.push_back(job.finish_time - job.arrival_time);
        ++result.finished_jobs;
        result.makespan_seconds = std::max(result.makespan_seconds, job.finish_time);
        busy_fraction = steps_possible > 0.0 ? finish_delay / kRoundSeconds : 0.0;
      } else {
        job.completed_iterations += steps_possible;
        job.state = workload::JobState::kRunning;
      }

      // Actual normalised throughput: realised samples/s in units of the same
      // device count on the slowest GPU type.
      const double norm = static_cast<double>(job.num_workers) * per_worker_rate /
                          job_reference_rate(job);
      tenant_rounds[job.tenant].actual += norm * busy_fraction;

      state.last_devices = std::move(devices);
      state.last_run_round = round;
      state.ever_ran = true;
    }

    for (auto& [tenant_id, tr] : tenant_rounds) {
      record.tenants.push_back(tr);
      result.total_estimated += tr.estimated;
      result.total_actual += tr.actual;
    }
    result.total_cross_type_jobs += record.cross_type_jobs;
    result.total_straggler_workers += record.straggler_workers;
    result.total_migrations += record.migrated_jobs;
    result.rounds.push_back(std::move(record));

    if (options_.cold_restart_scheduler) {
      // Bench arm: every round pays the full cold price — no warm basis, no
      // recycled envy rows, no identity-keyed state across churn.
      retired_telemetry.merge(scheduler->telemetry());
      scheduler = sched::make_scheduler(options_.scheduler, oef_options);
    }
  }

  if (result.makespan_seconds == 0.0 && !result.rounds.empty()) {
    result.makespan_seconds = result.rounds.back().time_seconds + kRoundSeconds;
  }
  result.scheduler_telemetry = scheduler->telemetry();
  result.scheduler_telemetry.merge(retired_telemetry);
  return result;
}

std::vector<double> SimulationEngine::reported_speedups(const workload::Job& job) const {
  // Profiling uses a mutable profiler per call site; recreate deterministic
  // noise from the engine seed + job identity so reports are stable across
  // rounds (a tenant profiles each job type once, §4.1).
  workload::ProfilerOptions profiler_options;
  profiler_options.error_rate = options_.profiling_error;
  profiler_options.seed = options_.seed ^ (0x9e3779b97f4a7c15ULL * (job.tenant + 1)) ^
                          std::hash<std::string>{}(job.model_name);
  workload::Profiler profiler(*catalog_, gpu_names_, profiler_options);
  std::vector<double> speeds = profiler.profile(zoo_->get(job.model_name), job.batch_size);

  // Heterogeneity-mix drift shifts the reported speed ratios of the non-base
  // types (the base type is the normalisation anchor and never drifts).
  if (!type_drift_.empty()) {
    for (std::size_t j = 1; j < speeds.size(); ++j) {
      speeds[j] = std::max(0.05, speeds[j] * type_drift_[j]);
    }
  }

  // Misreports in effect (from their kMisreport event's round on).
  for (const auto& [tenant, factor] : misreports_) {
    if (tenant != job.tenant) continue;
    for (std::size_t j = 1; j < speeds.size(); ++j) {
      speeds[j] = std::max(1.0, speeds[j] * factor);
    }
  }
  return speeds;
}

SimResult run_simulation(const cluster::Cluster& cluster,
                         const workload::GpuCatalog& catalog,
                         std::vector<std::string> gpu_names, const workload::ModelZoo& zoo,
                         workload::Trace trace, SimOptions options) {
  SimulationEngine engine(cluster, catalog, std::move(gpu_names), zoo, std::move(trace),
                          std::move(options));
  return engine.run();
}

}  // namespace oef::sim

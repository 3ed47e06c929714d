#include "sim/events.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/check.h"
#include "common/rng.h"

namespace oef::sim {

namespace {

/// Jobs each arriving tenant brings, and the rounds a demand burst lasts.
constexpr std::size_t kJobsPerArrival = 3;
constexpr std::size_t kBurstDuration = 5;

}  // namespace

const char* to_string(ClusterEventKind kind) {
  switch (kind) {
    case ClusterEventKind::kTenantArrival: return "tenant_arrival";
    case ClusterEventKind::kTenantDeparture: return "tenant_departure";
    case ClusterEventKind::kDemandBurst: return "demand_burst";
    case ClusterEventKind::kDeviceFailure: return "device_failure";
    case ClusterEventKind::kDeviceRecovery: return "device_recovery";
    case ClusterEventKind::kMixDrift: return "mix_drift";
    case ClusterEventKind::kMisreport: return "misreport";
  }
  return "unknown";
}

std::vector<ClusterEvent> generate_event_schedule(const cluster::Cluster& cluster,
                                                  const workload::ModelZoo& zoo,
                                                  workload::Trace& trace,
                                                  const EventScheduleOptions& options) {
  OEF_REQUIRE_MSG(!trace.tenants.empty(), "event schedule needs a seed trace");
  common::Rng rng(options.seed);
  std::vector<ClusterEvent> events;

  std::vector<workload::TenantId> alive;
  for (const workload::Tenant& tenant : trace.tenants) alive.push_back(tenant.id);

  std::vector<char> host_up(cluster.hosts().size(), 1);
  // Recovery bookkeeping at generation time, so a later failure roll never
  // picks a host that is already down (or re-fails the only healthy one).
  std::map<std::size_t, std::vector<cluster::HostId>> recover_at;

  const std::vector<std::string> model_names = zoo.names();
  const std::size_t k = cluster.num_gpu_types();
  const std::vector<std::size_t> batch_choices = {16, 32, 64, 128};

  for (std::size_t round = 0; round < options.horizon_rounds; ++round) {
    if (const auto it = recover_at.find(round); it != recover_at.end()) {
      for (const cluster::HostId host : it->second) host_up[host] = 1;
    }

    // Fixed roll order per round keeps the schedule bit-reproducible.
    if (rng.uniform() < options.tenant_arrival_rate) {
      workload::Tenant tenant;
      tenant.id = trace.tenants.size();
      tenant.name = "evt_tenant_" + std::to_string(tenant.id);
      tenant.weight = 1.0;
      tenant.arrival_time = static_cast<double>(round) * kRoundSeconds;
      for (std::size_t j = 0; j < kJobsPerArrival; ++j) {
        workload::Job job;
        job.id = trace.jobs.size();
        job.tenant = tenant.id;
        job.model_name = model_names[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(model_names.size()) - 1))];
        job.batch_size = batch_choices[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(batch_choices.size()) - 1))];
        const double worker_roll = rng.uniform();
        job.num_workers = worker_roll < 0.6 ? 1 : (worker_roll < 0.85 ? 2 : 4);
        job.total_iterations =
            rng.lognormal(options.arrival_iterations_mu, options.arrival_iterations_sigma);
        job.arrival_time = tenant.arrival_time;
        tenant.jobs.push_back(job.id);
        trace.jobs.push_back(std::move(job));
      }
      alive.push_back(tenant.id);
      trace.tenants.push_back(std::move(tenant));
      ClusterEvent event;
      event.round = round;
      event.kind = ClusterEventKind::kTenantArrival;
      event.tenant = trace.tenants.back().id;
      events.push_back(event);
    }

    if (alive.size() > 2 && rng.uniform() < options.tenant_departure_rate) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1));
      ClusterEvent event;
      event.round = round;
      event.kind = ClusterEventKind::kTenantDeparture;
      event.tenant = alive[pick];
      events.push_back(event);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    if (!alive.empty() && rng.uniform() < options.burst_rate) {
      ClusterEvent event;
      event.round = round;
      event.kind = ClusterEventKind::kDemandBurst;
      event.tenant = alive[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alive.size()) - 1))];
      event.factor = options.burst_factor;
      event.duration_rounds = kBurstDuration;
      events.push_back(event);
    }

    if (rng.uniform() < options.failure_rate) {
      std::vector<cluster::HostId> up;
      for (cluster::HostId h = 0; h < host_up.size(); ++h) {
        if (host_up[h]) up.push_back(h);
      }
      if (up.size() > 1) {  // never take down the last healthy host
        const cluster::HostId host = up[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(up.size()) - 1))];
        host_up[host] = 0;
        ClusterEvent failure;
        failure.round = round;
        failure.kind = ClusterEventKind::kDeviceFailure;
        failure.host = host;
        if (rng.uniform() < options.whole_host_failure_fraction) {
          failure.devices = 0;  // whole host
        } else {
          // Partial failure: 1-2 devices, capped by the host's size.
          const std::size_t host_devices = cluster.host(host).devices.size();
          failure.devices = std::min<std::size_t>(
              host_devices, static_cast<std::size_t>(rng.uniform_int(1, 2)));
        }
        events.push_back(failure);
        ClusterEvent recovery;
        recovery.round = round + options.recovery_rounds;
        recovery.kind = ClusterEventKind::kDeviceRecovery;
        recovery.host = host;
        events.push_back(recovery);
        recover_at[recovery.round].push_back(host);
      }
    }

    if (k > 1 && rng.uniform() < options.drift_rate) {
      ClusterEvent event;
      event.round = round;
      event.kind = ClusterEventKind::kMixDrift;
      event.gpu_type = static_cast<cluster::GpuTypeId>(
          rng.uniform_int(1, static_cast<std::int64_t>(k) - 1));
      event.factor = std::exp(rng.normal(0.0, options.drift_sigma));
      events.push_back(event);
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const ClusterEvent& a, const ClusterEvent& b) {
                     return a.round < b.round;
                   });
  return events;
}

}  // namespace oef::sim

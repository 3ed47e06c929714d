// Robustness benchmark: the dynamic-cluster engine under a failure-heavy
// seeded event schedule (tenant churn, demand bursts, GPU/host failures,
// mix drift) with solver fault injection (corrupted eta updates, forced
// basis deficiencies) layered on top.
//
// Two arms run the SAME trace and event schedule:
//   * warm — the shipped configuration: one persistent scheduler whose
//     LP basis, factorisation and recycled envy-row pool ride through the
//     churn (stable-ID warm starts),
//   * cold — the scheduler is torn down and rebuilt every round, so every
//     solve is a cold two-phase solve with adjacent envy seeding.
//
// The acceptance contract of the robustness work: the failure-heavy run
// completes with zero process aborts, every round is served (degraded
// rounds are flagged, never dropped), and the warm arm is >= 5x cheaper in
// simplex pivots than cold-solving every event.
//
// A third, event arm drives one cooperative OefAllocator directly (k = 3,
// capacities {0.3n, 0.4n, 0.22n}, speedup rows (1, 1 + a/2, 1 + 0.6ac) with
// a, c ~ U[1, 4], stable ids): one cold call, then calls that cycle a mix
// drift, a tenant arrival and a tenant departure, each also solved by a
// fresh allocator. Gates: equal objectives, passing certificates, envy-free
// and sharing-incentive warm allocations, and arrivals and departures each
// >= 10x cheaper in pivots than the fresh allocator, at n = 100 and 300.
//
// Output: tables plus machine-readable BENCH_churn.json (one record per
// arm; schema in docs/BENCHMARKS.md).
//
// Usage: bench_churn [--rounds=N] [--output=PATH]
// Exit code: number of failed checks (0 = healthy).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/oef.h"
#include "core/properties.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "workload/trace.h"

namespace {

using namespace oef;

struct ArmRecord {
  std::string arm;
  std::size_t rounds = 0;
  std::size_t events_applied = 0;
  std::size_t max_devices_down = 0;
  bool every_round_fits = true;
  std::size_t degraded_rounds = 0;
  std::size_t fallback_rounds = 0;
  std::size_t deadline_expirations = 0;
  std::size_t lp_iterations = 0;
  std::size_t lp_cold_solves = 0;
  std::size_t lp_warm_resolves = 0;
  std::size_t lp_warm_start_hits = 0;
  std::size_t lp_basis_repairs = 0;
  std::size_t lp_certificate_failures = 0;
  double solve_seconds = 0.0;
  double wall_seconds = 0.0;
  double total_actual = 0.0;
};

ArmRecord run_arm(const char* name, const sim::SimOptions& options,
                  const cluster::Cluster& cluster, const workload::GpuCatalog& catalog,
                  const std::vector<std::string>& gpu_names,
                  const workload::ModelZoo& zoo, const workload::Trace& trace) {
  const auto start = std::chrono::steady_clock::now();
  const sim::SimResult result =
      sim::run_simulation(cluster, catalog, gpu_names, zoo, trace, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ArmRecord record;
  record.arm = name;
  record.rounds = result.rounds.size();
  for (const sim::RoundRecord& round : result.rounds) {
    record.events_applied += round.events_applied;
    record.max_devices_down = std::max(record.max_devices_down, round.devices_down);
    const double surviving =
        std::accumulate(round.capacities.begin(), round.capacities.end(), 0.0);
    std::size_t granted = 0;
    for (const sim::TenantRound& tr : round.tenants) granted += tr.devices;
    if (static_cast<double>(granted) > surviving + 1e-9) record.every_round_fits = false;
  }
  record.degraded_rounds = result.degraded_rounds;
  record.fallback_rounds = result.fallback_rounds;
  const sched::SchedulerTelemetry& t = result.scheduler_telemetry;
  record.deadline_expirations = t.deadline_expirations;
  record.lp_iterations = t.lp_iterations;
  record.lp_cold_solves = t.lp_cold_solves;
  record.lp_warm_resolves = t.lp_warm_resolves;
  record.lp_warm_start_hits = t.lp_warm_start_hits;
  record.lp_basis_repairs = t.lp_basis_repairs;
  record.lp_certificate_failures = t.lp_certificate_failures;
  record.solve_seconds = result.total_solve_seconds;
  record.wall_seconds = wall;
  record.total_actual = result.total_actual;
  return record;
}

/// One event arm: pivot sums per event kind, for the persistent allocator
/// and for a fresh allocator solving the same inputs.
struct EventRecord {
  enum Kind { kDrift, kArrival, kDeparture, kKinds };
  std::size_t n = 0;
  std::size_t calls = 0;
  std::size_t cold_call_pivots = 0;
  std::size_t pivots[kKinds] = {};
  std::size_t fresh_pivots[kKinds] = {};
  std::size_t objective_mismatches = 0;
  std::size_t unfair_allocations = 0;  // envy-freeness or sharing incentive broken
  std::size_t certificate_failures = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double ratio(Kind kind) const {
    return static_cast<double>(fresh_pivots[kind]) /
           std::max<double>(1.0, static_cast<double>(pivots[kind]));
  }
};

EventRecord run_event_arm(std::size_t n, std::size_t calls) {
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> factor(1.0, 4.0);
  std::uniform_real_distribution<double> drift(0.97, 1.03);
  const auto pick = [&](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
  };
  const auto draw_row = [&] {
    const double a = factor(rng);
    const double c = factor(rng);
    return std::vector<double>{1.0, 1.0 + a / 2.0, 1.0 + 0.6 * a * c};
  };
  std::vector<std::vector<double>> rows;
  std::vector<std::size_t> ids;
  for (std::size_t l = 0; l < n; ++l) {
    rows.push_back(draw_row());
    ids.push_back(l);
  }
  std::size_t next_id = n;
  const double users = static_cast<double>(n);
  const std::vector<double> capacities = {0.3 * users, 0.4 * users, 0.22 * users};

  EventRecord record;
  record.n = n;
  record.calls = calls;
  const core::OefAllocator persistent = core::make_cooperative_oef();
  for (std::size_t call = 0; call <= calls; ++call) {
    const auto kind = static_cast<EventRecord::Kind>((call + 2) % 3);
    if (call > 0 && kind == EventRecord::kDrift) {
      std::vector<double>& row = rows[pick(rows.size())];
      row[1] *= drift(rng);
      row[2] *= drift(rng);
    } else if (call > 0 && kind == EventRecord::kArrival) {
      rows.push_back(draw_row());
      ids.push_back(next_id++);
    } else if (call > 0) {
      const std::size_t leaving = pick(rows.size());
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(leaving));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(leaving));
    }
    const core::SpeedupMatrix speedups(rows);
    const std::vector<double> weights(rows.size(), 1.0);
    const core::AllocationResult warm =
        persistent.allocate_weighted(speedups, weights, capacities, ids);
    const core::AllocationResult fresh =
        core::make_cooperative_oef().allocate_weighted(speedups, weights, capacities, ids);
    if (!warm.ok() || !fresh.ok() ||
        std::abs(warm.total_efficiency - fresh.total_efficiency) >
            1e-6 * (1.0 + std::abs(fresh.total_efficiency))) {
      ++record.objective_mismatches;
    }
    if (call == 0) {
      record.cold_call_pivots = warm.lp_iterations;
      continue;
    }
    record.pivots[kind] += warm.lp_iterations;
    record.fresh_pivots[kind] += fresh.lp_iterations;
    if (!core::check_envy_freeness(speedups, warm.allocation, 1e-6).envy_free ||
        !core::check_sharing_incentive(speedups, warm.allocation, capacities, 1e-6)
             .sharing_incentive) {
      ++record.unfair_allocations;
    }
  }
  record.certificate_failures = persistent.solver_stats().certificate_failures;
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return record;
}

void write_json(const std::vector<ArmRecord>& records, const std::vector<EventRecord>& events,
                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("  (could not open %s for writing)\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"churn\",\n  \"runs\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ArmRecord& r = records[i];
    std::fprintf(out,
                 "    {\"arm\": \"%s\", \"rounds\": %zu, \"events_applied\": %zu, "
                 "\"max_devices_down\": %zu, \"every_round_fits\": %s, "
                 "\"degraded_rounds\": %zu, \"fallback_rounds\": %zu, "
                 "\"deadline_expirations\": %zu, "
                 "\"lp_iterations\": %zu, \"lp_cold_solves\": %zu, "
                 "\"lp_warm_resolves\": %zu, \"lp_warm_start_hits\": %zu, "
                 "\"lp_basis_repairs\": %zu, \"lp_certificate_failures\": %zu, "
                 "\"solve_seconds\": %.6f, \"wall_seconds\": %.6f, "
                 "\"total_actual\": %.6f}%s\n",
                 r.arm.c_str(), r.rounds, r.events_applied, r.max_devices_down,
                 r.every_round_fits ? "true" : "false", r.degraded_rounds,
                 r.fallback_rounds, r.deadline_expirations,
                 r.lp_iterations, r.lp_cold_solves, r.lp_warm_resolves,
                 r.lp_warm_start_hits, r.lp_basis_repairs, r.lp_certificate_failures,
                 r.solve_seconds, r.wall_seconds, r.total_actual,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"event_runs\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventRecord& e = events[i];
    std::fprintf(out,
                 "    {\"arm\": \"events\", \"n\": %zu, \"calls\": %zu, "
                 "\"cold_call_pivots\": %zu, "
                 "\"drift_pivots\": %zu, \"drift_fresh_pivots\": %zu, "
                 "\"arrival_pivots\": %zu, \"arrival_fresh_pivots\": %zu, "
                 "\"departure_pivots\": %zu, \"departure_fresh_pivots\": %zu, "
                 "\"objective_mismatches\": %zu, \"unfair_allocations\": %zu, "
                 "\"certificate_failures\": %zu, \"wall_seconds\": %.6f}%s\n",
                 e.n, e.calls, e.cold_call_pivots, e.pivots[EventRecord::kDrift],
                 e.fresh_pivots[EventRecord::kDrift], e.pivots[EventRecord::kArrival],
                 e.fresh_pivots[EventRecord::kArrival], e.pivots[EventRecord::kDeparture],
                 e.fresh_pivots[EventRecord::kDeparture], e.objective_mismatches,
                 e.unfair_allocations, e.certificate_failures, e.wall_seconds,
                 i + 1 < events.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("  wrote %s (%zu runs, %zu event runs)\n", path.c_str(), records.size(),
              events.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 40;
  std::string output = "BENCH_churn.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--rounds=", 9) == 0) {
      rounds = static_cast<std::size_t>(std::stoul(argv[a] + 9));
    } else if (std::strncmp(argv[a], "--output=", 9) == 0) {
      output = argv[a] + 9;
    } else {
      std::printf("usage: %s [--rounds=N] [--output=PATH]\n", argv[0]);
      return 1;
    }
  }

  bench::print_header(
      "Churn: failure-heavy dynamic cluster + solver fault injection",
      "warm solver paths keep serving through churn at >= 5x fewer pivots than "
      "cold-per-event");

  const cluster::Cluster cluster = cluster::make_paper_cluster();
  const workload::GpuCatalog catalog = workload::make_paper_catalog();
  const std::vector<std::string> gpu_names = {"RTX3070", "RTX3080", "RTX3090"};
  const workload::ModelZoo zoo;

  // A persistent tenant population (long jobs) so the churn — not job
  // completion — drives the user-set dynamics.
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 30;
  trace_options.mean_jobs_per_tenant = 4.0;
  trace_options.single_model_fraction = 0.8;
  trace_options.iterations_mu = 15.0;  // ~3M iterations median: nobody
  trace_options.iterations_sigma = 0.3;  // finishes inside the horizon
  trace_options.seed = 23;
  const workload::Trace base_trace = workload::generate_trace(zoo, trace_options);

  // Failure-heavy schedule: both arms replay exactly this event stream.
  workload::Trace trace = base_trace;  // arrivals append tenants/jobs
  sim::EventScheduleOptions schedule_options;
  schedule_options.seed = 31;
  schedule_options.horizon_rounds = rounds;
  schedule_options.tenant_arrival_rate = 0.05;
  schedule_options.tenant_departure_rate = 0.05;
  schedule_options.burst_rate = 0.06;
  schedule_options.failure_rate = 0.30;
  schedule_options.whole_host_failure_fraction = 0.15;
  schedule_options.drift_rate = 0.05;
  schedule_options.burst_factor = 2.0;
  schedule_options.drift_sigma = 0.10;
  schedule_options.recovery_rounds = 4;
  // Arriving tenants' jobs outlive the horizon too, so the virtual-user set
  // changes only at genuine churn events, not at job completions.
  schedule_options.arrival_iterations_mu = 15.0;
  schedule_options.arrival_iterations_sigma = 0.3;
  const std::vector<sim::ClusterEvent> events =
      sim::generate_event_schedule(cluster, zoo, trace, schedule_options);
  std::printf("  schedule: %zu events over %zu rounds\n", events.size(), rounds);

  sim::SimOptions options;
  options.scheduler = "OEF-coop";
  options.max_rounds = rounds;
  options.events = events;
  options.faults.eta_corruption_rate = 0.02;
  options.faults.basis_fault_rate = 0.25;

  std::vector<ArmRecord> records;
  records.push_back(
      run_arm("warm", options, cluster, catalog, gpu_names, zoo, trace));
  sim::SimOptions cold_options = options;
  cold_options.cold_restart_scheduler = true;
  records.push_back(
      run_arm("cold_per_event", cold_options, cluster, catalog, gpu_names, zoo, trace));

  common::Table table({"arm", "rounds", "events", "down(max)", "degraded", "fallback",
                       "pivots", "cold", "warm", "repairs", "cert fails", "wall (s)"});
  for (const ArmRecord& r : records) {
    table.add_row({r.arm, std::to_string(r.rounds), std::to_string(r.events_applied),
                   std::to_string(r.max_devices_down), std::to_string(r.degraded_rounds),
                   std::to_string(r.fallback_rounds), std::to_string(r.lp_iterations),
                   std::to_string(r.lp_cold_solves),
                   std::to_string(r.lp_warm_resolves + r.lp_warm_start_hits),
                   std::to_string(r.lp_basis_repairs),
                   std::to_string(r.lp_certificate_failures),
                   common::format_double(r.wall_seconds, 3)});
  }
  table.print();

  int failures = 0;
  const auto check = [&failures](const std::string& label, bool ok) {
    bench::print_check(label, ok);
    if (!ok) ++failures;
  };

  const ArmRecord& warm = records[0];
  const ArmRecord& cold = records[1];
  // Reaching this line at all is the zero-abort criterion: a CHECK abort or
  // unhandled fault would have killed the process mid-run.
  check("failure-heavy run completed with zero aborts (both arms)", true);
  check("warm arm served every scheduled round", warm.rounds == rounds);
  check("cold arm served every scheduled round", cold.rounds == rounds);
  check("warm arm: every round fits the surviving capacity", warm.every_round_fits);
  check("cold arm: every round fits the surviving capacity", cold.every_round_fits);
  check("faults engaged the basis repair machinery", warm.lp_basis_repairs > 0);
  check("no round needed the terminal last-feasible fallback",
        warm.fallback_rounds == 0 && cold.fallback_rounds == 0);
  const double ratio = static_cast<double>(cold.lp_iterations) /
                       std::max<double>(1.0, static_cast<double>(warm.lp_iterations));
  std::printf("  pivots: warm=%zu cold=%zu ratio=%.1fx\n", warm.lp_iterations,
              cold.lp_iterations, ratio);
  check("warm churn >= 5x cheaper in pivots than cold-solve-per-event", ratio >= 5.0);

  // Event arm: a persistent allocator across arrivals and departures against
  // a fresh allocator per call.
  std::vector<EventRecord> event_arms;
  event_arms.push_back(run_event_arm(100, 60));
  event_arms.push_back(run_event_arm(300, 12));
  common::Table event_table({"n", "calls", "kind", "pivots", "fresh pivots", "ratio"});
  const char* const kind_names[] = {"drift", "arrival", "departure"};
  for (const EventRecord& e : event_arms) {
    for (int kind = 0; kind < EventRecord::kKinds; ++kind) {
      const auto k = static_cast<EventRecord::Kind>(kind);
      event_table.add_row({std::to_string(e.n), std::to_string(e.calls), kind_names[kind],
                           std::to_string(e.pivots[k]), std::to_string(e.fresh_pivots[k]),
                           common::format_double(e.ratio(k), 1) + "x"});
    }
  }
  event_table.print();
  for (const EventRecord& e : event_arms) {
    const std::string at = " (n = " + std::to_string(e.n) + ")";
    std::printf("  events%s: cold call %zu pivots, %zu calls in %.2f s\n", at.c_str(),
                e.cold_call_pivots, e.calls, e.wall_seconds);
    check("event objectives equal a fresh allocator's to 1e-6" + at, e.objective_mismatches == 0);
    check("no event optimum failed its certificate" + at, e.certificate_failures == 0);
    check("every warm event allocation is envy-free and meets sharing incentive" + at,
          e.unfair_allocations == 0);
    check("arrivals >= 10x cheaper in pivots than a fresh allocator" + at,
          e.ratio(EventRecord::kArrival) >= 10.0);
    check("departures >= 10x cheaper in pivots than a fresh allocator" + at,
          e.ratio(EventRecord::kDeparture) >= 10.0);
  }

  write_json(records, event_arms, output);
  return failures;
}

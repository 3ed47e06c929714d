// perfbench load generator: runs one named workload against the repository's public
// interfaces and writes what it measured — raw latency samples, set-up
// times, the counters the program returns, and (traced runs) spans — as JSON
// for perfbench/run.py to reduce into metrics.
//
// Usage:
//   perfbench_loadgen --workload=coop_cold|sim_churn|daemon_mixed --seed=N
//                    --seconds=S --trace=0|1 --out=FILE [--spans=FILE]
//                    [--oefd=PATH] [--connections=N]
//
// Run it from a scratch directory: daemon_mixed puts oefd's socket and
// checkpoint there under relative names. The exit code is 0 whenever the
// output file was written; correctness verdicts travel inside it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/oef.h"
#include "core/properties.h"
#include "service/checkpoint.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/events.h"
#include "workload/dl_models.h"
#include "workload/gpu_catalog.h"
#include "workload/trace.h"

namespace {

using namespace oef;
using common::monotonic_seconds;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string oefd;
  std::size_t connections = 3;
};

/// Independent, reproducible stream per (seed, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index;
  return common::splitmix64(state);
}

// ---------------------------------------------------------------------------
// Spans: recorded around each public call the load generator makes, kept in memory,
// written out once at the end. Disabled tracers read no clock.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t request = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return ++last_id_; }
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

thread_local std::uint64_t t_open_span = 0;

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    span_.id = tracer_.next_id();
    span_.parent = t_open_span;
    span_.name = name;
    span_.request = request;
    t_open_span = span_.id;
    span_.start = monotonic_seconds();
  }
  ~ScopedSpan() {
    if (!tracer_.enabled()) return;
    span_.end = monotonic_seconds();
    t_open_span = span_.parent;
    tracer_.record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void attr(const char* key, double value) {
    if (tracer_.enabled()) span_.attrs.emplace_back(key, value);
  }
  void set_request(std::uint64_t request) { span_.request = request; }

 private:
  Tracer& tracer_;
  Span span_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    std::string line = "{\"id\": " + std::to_string(span.id) +
                       ", \"parent\": " + std::to_string(span.parent) +
                       ", \"name\": " + json_string(span.name) +
                       ", \"start\": " + json_number(span.start) +
                       ", \"end\": " + json_number(span.end) +
                       ", \"request\": " + std::to_string(span.request) + ", \"attrs\": {";
    for (std::size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) line += ", ";
      line += json_string(span.attrs[i].first) + ": " + json_number(span.attrs[i].second);
    }
    line += "}}\n";
    std::fputs(line.c_str(), out);
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------------
// Run output.
// ---------------------------------------------------------------------------

/// The measured phase is a sequence of passes, each a unit of seeded work:
/// every coop_cold pass allocates the same instances, sim_churn's passes
/// cycle through its schedules, daemon_mixed's closed loop is one pass.
/// Each op carries a key and each pass a pass key; equal keys name the same
/// deterministic work repeated. run.py counts each key once, at its fastest
/// repeat, so a slow stretch of a shared machine does not set a run's
/// figures while every op still counts.
struct RunOutput {
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Completed ops in the measured phase.
  std::uint64_t ops = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  /// One latency sample of the workload's primary op, the repeat of op `key`.
  void op(double ms, std::size_t key) {
    samples["op_ms"].push_back(ms);
    samples["op_key"].push_back(static_cast<double>(key));
  }
  /// Closes a pass of kind `key`: its wall seconds and the ops it completed.
  void pass(double seconds, std::size_t ops_done, std::size_t key) {
    samples["pass_s"].push_back(seconds);
    samples["pass_ops"].push_back(static_cast<double>(ops_done));
    samples["pass_key"].push_back(static_cast<double>(key));
  }
};

/// Runs pass(0), pass(1), ... in cycles of `cycle` passes: at least
/// `min_cycles` cycles, then another only while it fits in `seconds` at the
/// last cycle's pace. Every pass kind is so repeated equally often.
template <typename Fn>
void run_cycles(double seconds, std::size_t cycle, std::size_t min_cycles, Fn&& pass) {
  const double start = monotonic_seconds();
  double cycle_start = start;
  for (std::size_t done = 0;; ++done) {
    for (std::size_t k = 0; k < cycle; ++k) pass(done * cycle + k);
    const double now = monotonic_seconds();
    if (done + 1 >= min_cycles && now - start + (now - cycle_start) > seconds) return;
    cycle_start = now;
  }
}

bool write_output(const std::string& path, const Args& args, const RunOutput& out) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const auto number_list = [](const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ", ";
      text += json_number(values[i]);
    }
    return text + "]";
  };
  std::string text = "{\"workload\": " + json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"connections\": " + std::to_string(args.connections) +
                     ", \"setup_s\": " + number_list(out.setup_s) +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"ops\": " + std::to_string(out.ops) + ", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i > 0) text += ", ";
    text += json_string(out.failures[i]);
  }
  text += "], \"samples\": {";
  bool first = true;
  for (const auto& [key, values] : out.samples) {
    text += (first ? "" : ", ") + json_string(key) + ": " + number_list(values);
    first = false;
  }
  text += "}, \"values\": {";
  first = true;
  for (const auto& [key, value] : out.values) {
    text += (first ? "" : ", ") + json_string(key) + ": " + json_number(value);
    first = false;
  }
  text += "}}\n";
  std::fputs(text.c_str(), file);
  return std::fclose(file) == 0;
}

/// Set-up is repeated so its median is steady; at least `min_reps` times and
/// until `min_seconds` have been spent.
template <typename Fn>
void repeat_setup(RunOutput& out, int min_reps, double min_seconds, Fn&& setup) {
  const double begin = monotonic_seconds();
  for (int rep = 0; rep < min_reps || monotonic_seconds() - begin < min_seconds; ++rep) {
    const double start = monotonic_seconds();
    setup();
    out.setup_s.push_back(monotonic_seconds() - start);
  }
}

/// Monotone speedup row, slowest type first: the shape the paper's profiler
/// produces for its GPU ladder (bench_scaling's and bench_service's
/// generator).
std::vector<double> random_demand(common::Rng& rng, std::size_t k) {
  std::vector<double> row(k);
  row[0] = 1.0;
  for (std::size_t j = 1; j < k; ++j) row[j] = row[j - 1] * rng.uniform(1.05, 2.0);
  return row;
}

// ---------------------------------------------------------------------------
// coop_cold: cold cooperative allocate() at n = 300, k = 3.
// ---------------------------------------------------------------------------

constexpr std::size_t kCoopUsers = 300;
constexpr double kPropertyTol = 1e-6;
/// Instances per coop_cold pass (about 5 s). Every pass allocates the same
/// seeded instances, and traced per-call layer numbers come from the first
/// pass, so counts repeat exactly for a seed.
constexpr std::size_t kCoopPassInstances = 2;
/// Every coop_cold run allocates its instances at least this many times,
/// however long one pass takes.
constexpr std::size_t kMinPasses = 2;

const std::vector<double>& coop_capacities() {
  static const std::vector<double> caps = {30.0, 40.0, 22.0};
  return caps;
}

/// bench_scaling's instance shape — monotone rows whose step ratios are
/// uniform on [1.05, 2.0) — drawn by stratified sampling: each step's n
/// ratios take one jittered value per equal-width stratum, shuffled across
/// users. Every instance then has almost the same empirical ratio
/// distribution, so solve cost varies little from seed to seed while the
/// instances stay distinct.
core::SpeedupMatrix coop_instance(std::uint64_t seed, std::size_t index) {
  common::Rng rng(mix(seed, index));
  const std::size_t k = coop_capacities().size();
  std::vector<std::vector<double>> rows(kCoopUsers, std::vector<double>(k, 1.0));
  std::vector<double> ratios(kCoopUsers);
  for (std::size_t j = 1; j < k; ++j) {
    for (std::size_t l = 0; l < kCoopUsers; ++l) {
      ratios[l] = 1.05 + 0.95 * (static_cast<double>(l) + rng.uniform()) /
                             static_cast<double>(kCoopUsers);
    }
    rng.shuffle(ratios);
    for (std::size_t l = 0; l < kCoopUsers; ++l) rows[l][j] = rows[l][j - 1] * ratios[l];
  }
  return core::SpeedupMatrix(std::move(rows));
}

std::string check_coop(const core::SpeedupMatrix& w, const core::AllocationResult& result) {
  if (!result.ok()) return std::string("outcome ") + core::to_string(result.outcome);
  if (!result.allocation.respects_capacity(coop_capacities(), kPropertyTol)) {
    return "allocation exceeds capacity";
  }
  const core::EnvyReport envy = core::check_envy_freeness(w, result.allocation, kPropertyTol);
  if (!envy.envy_free) return "envy violation " + std::to_string(envy.worst_violation);
  const core::SharingIncentiveReport si =
      core::check_sharing_incentive(w, result.allocation, coop_capacities(), kPropertyTol);
  if (!si.sharing_incentive) {
    return "sharing-incentive violation " + std::to_string(si.worst_violation);
  }
  return {};
}

/// One allocate() on a fresh allocator, timed into `wall_s`; the counters the
/// result carries go on its span.
core::AllocationResult allocate_cold(Tracer& tracer, std::uint64_t call,
                                     const core::OefAllocator& allocator,
                                     const core::SpeedupMatrix& w, double& wall_s) {
  ScopedSpan span(tracer, "core.allocate", call);
  const double start = monotonic_seconds();
  core::AllocationResult result = allocator.allocate(w, coop_capacities());
  wall_s = monotonic_seconds() - start;
  span.attr("solve_s", result.solve_seconds);
  span.attr("oracle_s", result.oracle_seconds);
  span.attr("pivots", static_cast<double>(result.lp_iterations));
  span.attr("cold_pivots", static_cast<double>(result.cold_lp_iterations));
  span.attr("warm_pivots", static_cast<double>(result.warm_lp_iterations));
  span.attr("lazy_rounds", static_cast<double>(result.lazy_rounds));
  span.attr("envy_rows_added", static_cast<double>(result.envy_rows_added));
  span.attr("envy_rows_dropped", static_cast<double>(result.envy_rows_dropped));
  span.attr("compactions", static_cast<double>(result.compactions));
  span.attr("warm_compactions", static_cast<double>(result.warm_compactions));
  span.attr("basis_repairs", static_cast<double>(result.basis_repairs));
  span.attr("dense_fallbacks", static_cast<double>(result.dense_fallbacks));
  span.attr("tableau_fallbacks", static_cast<double>(result.tableau_fallbacks));
  return result;
}

void run_coop_cold(const Args& args, Tracer& tracer, RunOutput& out) {
  std::vector<core::SpeedupMatrix> instances;
  repeat_setup(out, 5, 1.0, [&] {
    instances.clear();
    for (std::size_t i = 0; i < kCoopPassInstances; ++i) {
      instances.push_back(coop_instance(args.seed, i));
    }
  });

  run_cycles(args.seconds, 1, kMinPasses, [&](std::size_t pass) {
    double pass_s = 0.0;
    std::size_t done = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const std::uint64_t call = pass * instances.size() + i;
      ScopedSpan root(tracer, "coop.instance", call);
      const core::OefAllocator allocator = core::make_cooperative_oef();
      double wall_s = 0.0;
      const core::AllocationResult result =
          allocate_cold(tracer, call, allocator, instances[i], wall_s);
      ++out.attempted;
      pass_s += wall_s;
      out.op(wall_s * 1000.0, i);
      out.samples["instance"].push_back(static_cast<double>(i));
      out.samples["objective"].push_back(result.total_efficiency);
      {
        ScopedSpan span(tracer, "bench.check", call);
        const std::string why = check_coop(instances[i], result);
        if (why.empty()) {
          ++done;
        } else {
          out.fail("pass " + std::to_string(pass) + " instance " + std::to_string(i) + ": " + why);
        }
      }
      if (pass == 0) out.values["throughput"] += result.total_efficiency / instances.size();
    }
    out.ops += done;
    out.pass(pass_s, done, 0);
  });
}

// ---------------------------------------------------------------------------
// sim_churn: OEF-coop in the round simulator under a seeded churn schedule.
// ---------------------------------------------------------------------------

constexpr std::size_t kSimRounds = 200;
/// Schedules per seed; sim_churn's passes cycle through them, at least once
/// (about 27 s on a 4-vCPU shared host, 45 s when other tenants slow it).
/// Each schedule's median round differs from the next one's by up to 1.3x,
/// so a run needs several to be steady from seed to seed; repeating fewer
/// schedules instead steadied nothing there, as the host's slow stretches
/// outlast a run.
constexpr std::size_t kSimSchedules = 6;
/// Untimed short simulations before the measured passes: a fresh process on
/// a shared host runs its first seconds slower.
constexpr double kSimWarmupSeconds = 2.0;
constexpr std::size_t kSimWarmupRounds = 20;

struct SimInputs {
  cluster::Cluster cluster;
  workload::GpuCatalog catalog;
  std::vector<std::string> gpu_names;
  workload::ModelZoo zoo;
  /// Each schedule with the trace its arrivals extend, closest to the rates'
  /// expectations first.
  std::vector<std::pair<workload::Trace, sim::SimOptions>> schedules;
};

/// bench_churn's event rates.
sim::EventScheduleOptions churn_rates(std::uint64_t seed) {
  sim::EventScheduleOptions schedule;
  schedule.seed = seed;
  schedule.horizon_rounds = kSimRounds;
  schedule.tenant_arrival_rate = 0.05;
  schedule.tenant_departure_rate = 0.05;
  schedule.burst_rate = 0.06;
  schedule.failure_rate = 0.30;
  schedule.whole_host_failure_fraction = 0.15;
  schedule.drift_rate = 0.05;
  schedule.burst_factor = 2.0;
  schedule.drift_sigma = 0.10;
  schedule.recovery_rounds = 4;
  schedule.arrival_iterations_mu = 15.0;
  schedule.arrival_iterations_sigma = 0.3;
  return schedule;
}

/// How far a schedule sits from its rates' expectations, in standard
/// deviations of each kind's event count summed over kinds, plus the
/// tenant-rounds that arrivals add and departures remove, in tenants present
/// for the whole horizon. Arrivals and departures set the cold solves and
/// the LP's size, and so most of a simulation's cost, so a missed
/// arrival or departure costs one more unit each.
double schedule_distance(const std::vector<sim::ClusterEvent>& events,
                         const sim::EventScheduleOptions& rates) {
  const std::pair<sim::ClusterEventKind, double> kinds[] = {
      {sim::ClusterEventKind::kTenantArrival, rates.tenant_arrival_rate},
      {sim::ClusterEventKind::kTenantDeparture, rates.tenant_departure_rate},
      {sim::ClusterEventKind::kDemandBurst, rates.burst_rate},
      {sim::ClusterEventKind::kDeviceFailure, rates.failure_rate},
      {sim::ClusterEventKind::kMixDrift, rates.drift_rate}};
  const auto horizon = static_cast<double>(rates.horizon_rounds);
  double distance = 0.0;
  for (const auto& [kind, rate] : kinds) {
    const double count = static_cast<double>(std::count_if(
        events.begin(), events.end(), [kind](const sim::ClusterEvent& e) { return e.kind == kind; }));
    const double expected = rate * horizon;
    distance += std::abs(count - expected) / std::sqrt(expected);
    if (kind == sim::ClusterEventKind::kTenantArrival ||
        kind == sim::ClusterEventKind::kTenantDeparture) {
      distance += std::abs(count - expected);
    }
  }
  double tenant_rounds = 0.0;
  for (const sim::ClusterEvent& e : events) {
    const double remaining = horizon - static_cast<double>(e.round);
    if (e.kind == sim::ClusterEventKind::kTenantArrival) tenant_rounds += remaining;
    if (e.kind == sim::ClusterEventKind::kTenantDeparture) tenant_rounds -= remaining;
  }
  return distance + std::abs(tenant_rounds) / horizon;
}

/// How far mix drift pulls the GPU types' speeds apart, averaged over the
/// horizon: each round's spread between the types' cumulative log drift
/// factors. The wider the speeds spread, the more envy rows bind and the
/// dearer every solve after that round.
double drift_spread(const std::vector<sim::ClusterEvent>& events, std::size_t gpu_types,
                    std::size_t horizon) {
  std::vector<double> log_drift(gpu_types, 0.0);
  double total = 0.0;
  std::size_t next = 0;
  for (std::size_t round = 0; round < horizon; ++round) {
    for (; next < events.size() && events[next].round <= round; ++next) {
      if (events[next].kind == sim::ClusterEventKind::kMixDrift) {
        log_drift[events[next].gpu_type] += std::log(events[next].factor);
      }
    }
    const auto [low, high] = std::minmax_element(log_drift.begin(), log_drift.end());
    total += *high - *low;
  }
  return total / static_cast<double>(horizon);
}

/// A fixed population of 100 long-job tenants under seeded churn schedules.
/// The seed draws kScheduleCandidates schedules at bench_churn's rates and
/// keeps the kSimSchedules most typical: closest to the rates' expected
/// event counts (schedule_distance), and with a drift_spread nearest the
/// candidates' median, in median absolute deviations. The seed so varies
/// when and where churn strikes more than how much work it makes.
SimInputs make_sim_inputs(std::uint64_t seed) {
  constexpr std::uint64_t kPopulationSeed = 7;
  constexpr std::size_t kScheduleCandidates = 512;
  SimInputs in{cluster::make_scale_cluster(3, 64), workload::make_paper_catalog(),
               {"RTX3070", "RTX3080", "RTX3090"}, workload::ModelZoo(), {}};
  // Jobs outlive the horizon, so churn events, not job completions, change
  // the user set.
  workload::TraceOptions trace_options;
  trace_options.num_tenants = 100;
  trace_options.mean_jobs_per_tenant = 4.0;
  trace_options.single_model_fraction = 0.8;
  trace_options.iterations_mu = 15.0;
  trace_options.iterations_sigma = 0.3;
  trace_options.seed = kPopulationSeed;
  const workload::Trace population = workload::generate_trace(in.zoo, trace_options);

  // Candidate c's schedule; arrivals append tenants and jobs to `trace`.
  const auto draw = [&](std::size_t c, workload::Trace& trace) {
    return sim::generate_event_schedule(in.cluster, in.zoo, trace,
                                        churn_rates(mix(seed, 1000 + c)));
  };
  std::vector<double> distance(kScheduleCandidates), spread(kScheduleCandidates);
  for (std::size_t c = 0; c < kScheduleCandidates; ++c) {
    workload::Trace trace = population;
    const std::vector<sim::ClusterEvent> events = draw(c, trace);
    distance[c] = schedule_distance(events, churn_rates(0));  // rates alone, not the seed
    spread[c] = drift_spread(events, in.gpu_names.size(), kSimRounds);
  }
  const auto median = [](std::vector<double> values) {
    std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
    return values[values.size() / 2];
  };
  const double spread_median = median(spread);
  std::vector<double> deviation(kScheduleCandidates);
  for (std::size_t c = 0; c < kScheduleCandidates; ++c) {
    deviation[c] = std::abs(spread[c] - spread_median);
  }
  const double spread_mad = std::max(median(deviation), 1e-12);
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t c = 0; c < kScheduleCandidates; ++c) {
    ranked.emplace_back(distance[c] + deviation[c] / spread_mad, c);
  }
  std::partial_sort(ranked.begin(), ranked.begin() + kSimSchedules, ranked.end());
  for (std::size_t k = 0; k < kSimSchedules; ++k) {
    workload::Trace trace = population;
    sim::SimOptions options;
    options.events = draw(ranked[k].second, trace);
    options.scheduler = "OEF-coop";
    options.max_rounds = kSimRounds;
    options.seed = mix(seed, 3);
    in.schedules.emplace_back(std::move(trace), std::move(options));
  }
  return in;
}

void run_sim_churn(const Args& args, Tracer& tracer, RunOutput& out) {
  std::optional<SimInputs> inputs;
  repeat_setup(out, 5, 1.0, [&] { inputs = make_sim_inputs(args.seed); });

  {
    ScopedSpan span(tracer, "sim.warmup");
    const auto& [trace, options] = inputs->schedules[0];
    sim::SimOptions warmup = options;
    warmup.max_rounds = kSimWarmupRounds;
    const double until = monotonic_seconds() + kSimWarmupSeconds;
    while (monotonic_seconds() < until) {
      (void)sim::run_simulation(inputs->cluster, inputs->catalog, inputs->gpu_names, inputs->zoo,
                                trace, warmup);
    }
  }

  const std::size_t schedules = inputs->schedules.size();
  run_cycles(args.seconds, schedules, 1, [&](std::size_t pass) {
    ScopedSpan span(tracer, "sim.run", pass);
    const std::size_t schedule = pass % schedules;
    const auto& [trace, options] = inputs->schedules[schedule];
    const double run_start = monotonic_seconds();
    const sim::SimResult result = sim::run_simulation(inputs->cluster, inputs->catalog,
                                                      inputs->gpu_names, inputs->zoo, trace, options);
    const double wall = monotonic_seconds() - run_start;
    // The first schedule's, so it repeats exactly for a seed.
    if (pass == 0) out.values["throughput"] = result.mean_actual_per_round();

    out.attempted += kSimRounds;
    if (result.rounds.size() != kSimRounds) {
      out.fail("served " + std::to_string(result.rounds.size()) + " rounds");
    }
    std::size_t done = 0;
    for (std::size_t r = 0; r < result.rounds.size(); ++r) {
      const sim::RoundRecord& round = result.rounds[r];
      out.op(round.solve_seconds * 1000.0, schedule * kSimRounds + r);
      const double surviving =
          std::accumulate(round.capacities.begin(), round.capacities.end(), 0.0);
      std::size_t granted = 0;
      for (const sim::TenantRound& tenant : round.tenants) granted += tenant.devices;
      if (static_cast<double>(granted) > surviving + 1e-9) {
        out.fail("round " + std::to_string(round.round) + " exceeds surviving capacity");
      } else if (round.fallback) {
        out.fail("round " + std::to_string(round.round) + " served the fallback");
      } else {
        ++done;
      }
    }
    out.ops += done;
    out.pass(wall, done, schedule);

    const sched::SchedulerTelemetry& t = result.scheduler_telemetry;
    span.attr("rounds", static_cast<double>(result.rounds.size()));
    span.attr("sched_solve_s", result.total_solve_seconds);
    span.attr("lp_s", t.lp_solve_seconds);
    span.attr("oracle_s", t.oracle_seconds);
    span.attr("pivots", static_cast<double>(t.lp_iterations));
    span.attr("cold_solves", static_cast<double>(t.lp_cold_solves));
    span.attr("warm_resolves", static_cast<double>(t.lp_warm_resolves));
    span.attr("warm_start_hits", static_cast<double>(t.lp_warm_start_hits));
    span.attr("basis_repairs", static_cast<double>(t.lp_basis_repairs));
    span.attr("dense_fallbacks", static_cast<double>(t.lp_dense_fallbacks));
    span.attr("tableau_fallbacks", static_cast<double>(t.lp_tableau_fallbacks));
    span.attr("degraded_rounds", static_cast<double>(result.degraded_rounds));
    span.attr("fallback_rounds", static_cast<double>(result.fallback_rounds));
    span.attr("migrations", static_cast<double>(result.total_migrations));
    span.attr("straggler_workers", static_cast<double>(result.total_straggler_workers));
    span.attr("throughput_actual", result.mean_actual_per_round());
  });
}

// ---------------------------------------------------------------------------
// daemon_mixed: a spawned oefd under a closed-loop read/write mix.
// ---------------------------------------------------------------------------

constexpr std::size_t kDaemonTenants = 32;
constexpr const char* kDaemonCapacities = "8,4,4";
constexpr std::size_t kDemandArity = 3;
constexpr std::size_t kMaxCapturedOps = 50000;

/// A spawned oefd, always killed and reaped on destruction.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, int index)
      : socket_("oefd-" + std::to_string(index) + ".sock"),
        checkpoint_("oefd-" + std::to_string(index) + ".ckpt") {
    const std::string socket_arg = "--socket=" + socket_;
    const std::string checkpoint_arg = "--checkpoint=" + checkpoint_;
    const std::string capacities_arg = std::string("--capacities=") + kDaemonCapacities;
    pid_ = fork();
    if (pid_ == 0) {
      const int log = ::open("oefd.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
      }
      execl(binary.c_str(), "oefd", socket_arg.c_str(), capacities_arg.c_str(),
            checkpoint_arg.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
  }
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] const std::string& checkpoint() const { return checkpoint_; }

  /// SIGTERM, a short grace period, then SIGKILL; always reaps.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double give_up = monotonic_seconds() + 2.0;
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (monotonic_seconds() > give_up) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      usleep(1000);
    }
    pid_ = -1;
  }

 private:
  std::string socket_;
  std::string checkpoint_;
  pid_t pid_ = -1;
};

service::Request make_request(service::MessageType type, std::string tenant = {},
                              std::vector<double> demand = {}) {
  service::Request request;
  request.type = type;
  request.tenant = std::move(tenant);
  request.demand = std::move(demand);
  return request;
}

service::ClientOptions client_options(const std::string& socket, std::uint64_t seed) {
  service::ClientOptions options;
  options.socket_path = socket;
  options.seed = seed;
  options.response_timeout_seconds = 10.0;
  return options;
}

bool await_daemon(const std::string& socket) {
  service::ClientOptions options = client_options(socket, 7);
  options.max_attempts = 5000;
  options.initial_backoff_seconds = 0.001;
  options.backoff_multiplier = 1.0;
  options.max_backoff_seconds = 0.001;
  service::AllocatorClient probe(options);
  return probe.call(make_request(service::MessageType::kHealth)).status ==
         service::StatusCode::kOk;
}

std::map<std::string, double> health(service::AllocatorClient& client, Tracer& tracer) {
  ScopedSpan span(tracer, "client.health");
  const service::Response response = client.call(make_request(service::MessageType::kHealth));
  std::map<std::string, double> stats;
  for (std::size_t i = 0; i < response.stat_keys.size(); ++i) {
    stats[response.stat_keys[i]] = response.stat_values[i];
    span.attr(response.stat_keys[i].c_str(), response.stat_values[i]);
  }
  return stats;
}

struct CapturedOp {
  double start = 0.0;
  service::Request request;
  service::Response response;
};

/// One closed-loop client: a per-tenant agent that waits for each reply.
/// It owns a disjoint slice of the tenants, so its churn never races another
/// client's updates.
struct ClientLoop {
  std::vector<std::string> tenants;
  std::size_t base = 0;
  std::vector<double> update_ms, query_ms, allocate_ms, churn_ms, efficiency;
  std::vector<CapturedOp> captured;
  std::uint64_t attempted = 0, completed = 0;
  std::vector<std::string> failures;
};

void client_loop(const std::string& socket, std::uint64_t seed, std::size_t index,
                 double stop_at, bool capture, Tracer& tracer, ClientLoop& loop) {
  common::Rng rng(mix(seed, 100 + index));
  service::AllocatorClient client(client_options(socket, mix(seed, 200 + index)));
  std::size_t next_name = 0;
  while (monotonic_seconds() < stop_at) {
    const double dice = rng.uniform();
    service::Request request;
    std::vector<double>* latencies = nullptr;
    const char* span_name = nullptr;
    std::size_t removed = loop.tenants.size();
    if (dice < 0.55) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(loop.tenants.size()) - 1));
      request = make_request(service::MessageType::kUpdateDemand, loop.tenants[pick],
                             random_demand(rng, kDemandArity));
      latencies = &loop.update_ms;
      span_name = "client.update_demand";
    } else if (dice < 0.85) {
      request = make_request(service::MessageType::kQueryAllocation);
      latencies = &loop.query_ms;
      span_name = "client.query_allocation";
    } else if (dice < 0.90) {
      request = make_request(service::MessageType::kAllocate);
      latencies = &loop.allocate_ms;
      span_name = "client.allocate";
    } else {
      // Paired churn: the slice stays within one tenant of its start size.
      const bool add = loop.tenants.size() < loop.base ||
                       (loop.tenants.size() == loop.base && rng.uniform() < 0.5);
      if (add) {
        request = make_request(service::MessageType::kAddTenant,
                               "c" + std::to_string(index) + "-" + std::to_string(next_name++),
                               random_demand(rng, kDemandArity));
        span_name = "client.add_tenant";
      } else {
        removed = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(loop.tenants.size()) - 1));
        request = make_request(service::MessageType::kRemoveTenant, loop.tenants[removed]);
        span_name = "client.remove_tenant";
      }
      latencies = &loop.churn_ms;
    }

    ++loop.attempted;
    ScopedSpan span(tracer, span_name);
    const double start = monotonic_seconds();
    const service::Response response = client.call(request);
    const double elapsed_ms = (monotonic_seconds() - start) * 1000.0;
    span.set_request(response.request_id);
    span.attr("status", static_cast<double>(response.status));

    bool ok = response.status == service::StatusCode::kOk;
    if (request.type == service::MessageType::kQueryAllocation) {
      ok = ok && response.has_snapshot;
      if (ok) loop.efficiency.push_back(response.snapshot.total_efficiency);
    }
    if (ok) {
      ++loop.completed;
      latencies->push_back(elapsed_ms);
      if (request.type == service::MessageType::kAddTenant) {
        loop.tenants.push_back(request.tenant);
      } else if (request.type == service::MessageType::kRemoveTenant) {
        loop.tenants.erase(loop.tenants.begin() + static_cast<std::ptrdiff_t>(removed));
      }
    } else if (loop.failures.size() < 10) {
      loop.failures.push_back(std::string(service::to_string(request.type)) + " -> " +
                              service::to_string(response.status) + ": " + response.message);
    }
    if (capture && loop.captured.size() < kMaxCapturedOps) {
      loop.captured.push_back({start, request, response});
    }
  }
}

std::vector<service::Request> registrations(std::uint64_t seed) {
  common::Rng rng(mix(seed, 50));
  std::vector<service::Request> requests;
  for (std::size_t t = 0; t < kDaemonTenants; ++t) {
    requests.push_back(make_request(service::MessageType::kAddTenant, "t" + std::to_string(t),
                                    random_demand(rng, kDemandArity)));
  }
  return requests;
}

/// Traced daemon_mixed probes: re-write the daemon's checkpoint payload,
/// run the wire codec over the captured mix, replay the mix in-process.
void probe_daemon_layers(Tracer& tracer, const std::string& checkpoint,
                         const std::vector<service::Request>& setup,
                         std::vector<CapturedOp> ops, double stop_at) {
  const std::optional<std::string> payload = service::load_checkpoint(checkpoint);
  if (payload.has_value()) {
    for (int rep = 0; rep < 10; ++rep) {
      ScopedSpan span(tracer, "service.checkpoint_write");
      service::write_checkpoint("probe.ckpt", *payload);
      span.attr("bytes", static_cast<double>(payload->size()));
    }
    std::remove("probe.ckpt");
  }

  std::sort(ops.begin(), ops.end(),
            [](const CapturedOp& a, const CapturedOp& b) { return a.start < b.start; });
  std::vector<std::string> requests(ops.size()), responses(ops.size());
  std::size_t sink = 0;
  {
    ScopedSpan span(tracer, "wire.encode");
    for (std::size_t i = 0; i < ops.size(); ++i) {
      requests[i] = service::encode_request(ops[i].request);
      responses[i] = service::encode_response(ops[i].response);
      sink += service::encode_frame(requests[i]).size() +
              service::encode_frame(responses[i]).size();
    }
    span.attr("count", static_cast<double>(ops.size()));
    span.attr("bytes", static_cast<double>(sink));
  }
  {
    ScopedSpan span(tracer, "wire.decode");
    for (std::size_t i = 0; i < ops.size(); ++i) {
      sink += service::decode_request(requests[i]).tenant.size();
      sink += service::decode_response(responses[i]).snapshot.tenants.size();
    }
    span.attr("count", static_cast<double>(ops.size()));
    span.attr("sink", static_cast<double>(sink));
  }

  service::ServiceOptions options;
  options.capacities = {8.0, 4.0, 4.0};
  service::AllocatorService replay(options);
  for (const service::Request& request : setup) (void)replay.handle(request);
  for (const CapturedOp& op : ops) {
    if (monotonic_seconds() > stop_at) break;
    ScopedSpan span(tracer, "service.handle");
    const service::Response response = replay.handle(op.request);
    span.attr("type", static_cast<double>(op.request.type));
    span.attr("status", static_cast<double>(response.status));
  }
}

void run_daemon_mixed(const Args& args, Tracer& tracer, RunOutput& out) {
  const std::vector<service::Request> setup = registrations(args.seed);
  std::unique_ptr<DaemonProcess> daemon;
  bool ready = true;
  constexpr int kSetups = 9;
  for (int rep = 0; rep < kSetups && ready; ++rep) {
    if (daemon) daemon->stop();
    ScopedSpan span(tracer, "daemon.setup", static_cast<std::uint64_t>(rep));
    const double start = monotonic_seconds();
    daemon = std::make_unique<DaemonProcess>(args.oefd, rep);
    ready = daemon->running() && await_daemon(daemon->socket());
    service::AllocatorClient client(client_options(daemon->socket(), mix(args.seed, 10 + rep)));
    for (const service::Request& request : setup) {
      if (!ready) break;
      ready = client.call(request).status == service::StatusCode::kOk;
    }
    out.setup_s.push_back(monotonic_seconds() - start);
  }
  if (!ready) {
    out.fail("daemon set-up failed");
    return;
  }

  service::AllocatorClient control(client_options(daemon->socket(), mix(args.seed, 20)));
  const std::map<std::string, double> before = health(control, tracer);

  const std::size_t connections = std::max<std::size_t>(1, args.connections);
  std::vector<ClientLoop> loops(connections);
  for (std::size_t t = 0; t < kDaemonTenants; ++t) {
    loops[t % connections].tenants.push_back(setup[t].tenant);
  }
  const double loop_seconds = tracer.enabled() ? 0.6 * args.seconds : args.seconds;
  const double start = monotonic_seconds();
  const double stop_at = start + loop_seconds;
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      loops[c].base = loops[c].tenants.size();
      threads.emplace_back(client_loop, daemon->socket(), args.seed, c, stop_at,
                           tracer.enabled(), std::ref(tracer), std::ref(loops[c]));
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double loop_s = monotonic_seconds() - start;

  std::vector<std::string> acked;
  std::vector<CapturedOp> captured;
  for (ClientLoop& loop : loops) {
    out.attempted += loop.attempted;
    out.ops += loop.completed;
    out.failed += loop.attempted - loop.completed;
    for (const std::string& why : loop.failures) {
      if (out.failures.size() < 20) out.failures.push_back(why);
    }
    acked.insert(acked.end(), loop.tenants.begin(), loop.tenants.end());
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    // Closed-loop requests never repeat: each is its own key.
    for (const double ms : loop.update_ms) out.op(ms, out.samples["op_ms"].size());
    append(out.samples["query_ms"], loop.query_ms);
    append(out.samples["allocate_ms"], loop.allocate_ms);
    append(out.samples["churn_ms"], loop.churn_ms);
    append(out.samples["efficiency"], loop.efficiency);
    captured.insert(captured.end(), loop.captured.begin(), loop.captured.end());
  }
  out.pass(loop_s, out.ops, 0);
  const std::vector<double>& efficiency = out.samples["efficiency"];
  out.values["throughput"] = std::accumulate(efficiency.begin(), efficiency.end(), 0.0) /
                             static_cast<double>(std::max<std::size_t>(1, efficiency.size()));

  // The served tenant set must equal the acknowledged one.
  ++out.attempted;
  const service::Response served =
      control.call(make_request(service::MessageType::kQueryAllocation));
  std::vector<std::string> names = served.snapshot.tenants;
  std::sort(names.begin(), names.end());
  std::sort(acked.begin(), acked.end());
  if (served.status != service::StatusCode::kOk || names != acked) {
    out.fail("served tenant set (" + std::to_string(names.size()) +
             ") differs from the acked set (" + std::to_string(acked.size()) + ")");
  }

  const std::map<std::string, double> after = health(control, tracer);
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    out.values["delta." + key] = value - (it == before.end() ? 0.0 : it->second);
  }
  out.values["max_queue_depth_seen"] =
      after.count("max_queue_depth_seen") != 0 ? after.at("max_queue_depth_seen") : 0.0;

  if (tracer.enabled()) {
    probe_daemon_layers(tracer, daemon->checkpoint(), setup, std::move(captured),
                        start + args.seconds);
  }
  daemon->stop();
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") args.workload = value;
    else if (key == "seed") args.seed = std::stoull(value);
    else if (key == "seconds") args.seconds = std::stod(value);
    else if (key == "trace") args.trace = value == "1";
    else if (key == "out") args.out = value;
    else if (key == "spans") args.spans = value;
    else if (key == "oefd") args.oefd = value;
    else if (key == "connections") args.connections = std::stoul(value);
    else return false;
  }
  return !args.workload.empty() && !args.out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--out=FILE [--spans=FILE] [--oefd=PATH] [--connections=N]\n");
    return 2;
  }
  Tracer tracer(args.trace);
  RunOutput out;
  try {
    if (args.workload == "coop_cold") {
      run_coop_cold(args, tracer, out);
    } else if (args.workload == "sim_churn") {
      run_sim_churn(args, tracer, out);
    } else if (args.workload == "daemon_mixed") {
      run_daemon_mixed(args, tracer, out);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    out.fail(std::string("exception: ") + error.what());
  }
  if (!args.spans.empty() && tracer.enabled() && !tracer.write(args.spans)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
    return 1;
  }
  if (!write_output(args.out, args, out)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

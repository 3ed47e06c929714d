// Service bench + chaos soak (PR 9): measures the allocator daemon end to
// end and gates its robustness envelope.
//
// Arms:
//   * latency      — p50/p99 client-observed latency of update_demand /
//                    allocate / query under concurrent load, batched
//                    (coalescing window) vs unbatched.
//   * warm-restart — pivots from process (re)start to the first served
//                    allocation: checkpoint warm-restore vs cold re-register,
//                    once per registration order. Gated per order: warm
//                    must cost >= 3x fewer pivots, and exactly as many as
//                    the same update on an uninterrupted twin service.
//   * overload     — queue-depth-2 daemon under a thundering herd: requests
//                    must shed with kOverloaded + last-good snapshots, never
//                    abort or queue without bound.
//   * soak         — oefd's serving loop (service::run_daemon) in a forked
//                    child, serving sequential acked churn through
//                    client-side wire faults (drop/dup/corrupt/truncate),
//                    kill -9'd and restarted mid-stream. Gated: zero lost
//                    acknowledged updates, acked ids deduped across restarts,
//                    every restart warm.
//
// Output: a table plus machine-readable BENCH_service.json. Exit code is the
// number of failed checks, so CI fails loudly.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.h"
#include "common/check.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/service.h"

namespace {

using oef::service::AllocatorClient;
using oef::service::AllocatorService;
using oef::service::ClientOptions;
using oef::service::Daemon;
using oef::service::DaemonOptions;
using oef::service::MessageType;
using oef::service::Request;
using oef::service::Response;
using oef::service::ServiceOptions;
using oef::service::ServiceStats;
using oef::service::StatusCode;

int g_failed_checks = 0;

void check(const std::string& label, bool ok) {
  oef::bench::print_check(label, ok);
  if (!ok) ++g_failed_checks;
}

Request make_add(const std::string& name, std::vector<double> demand, double weight = 1.0) {
  Request request;
  request.type = MessageType::kAddTenant;
  request.tenant = name;
  request.demand = std::move(demand);
  request.weight = weight;
  return request;
}

Request make_update(const std::string& name, std::vector<double> demand) {
  Request request;
  request.type = MessageType::kUpdateDemand;
  request.tenant = name;
  request.demand = std::move(demand);
  return request;
}

std::vector<double> random_demand(oef::common::Rng& rng, std::size_t k) {
  std::vector<double> demand(k);
  demand[0] = 1.0;
  for (std::size_t j = 1; j < k; ++j) demand[j] = demand[j - 1] * rng.uniform(1.05, 2.0);
  return demand;
}

// ---------------------------------------------------------------------------
// Latency arms: batched (coalescing) vs unbatched.
// ---------------------------------------------------------------------------

struct LatencyRecord {
  std::string arm;
  std::size_t updates = 0;
  double update_p50_ms = 0.0;
  double update_p99_ms = 0.0;
  double allocate_p50_ms = 0.0;
  double allocate_p99_ms = 0.0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  std::size_t resolves = 0;
  std::size_t batches = 0;
  std::size_t max_batch = 0;
};

LatencyRecord run_latency_arm(const std::string& arm, double coalesce_seconds,
                              std::size_t tenants, std::size_t updates_per_thread,
                              std::size_t threads) {
  const std::string socket_path = "/tmp/oefd_bench_" + arm + ".sock";
  ServiceOptions service_options;
  service_options.capacities = {8.0, 4.0, 4.0};
  service_options.coalesce_window_seconds = coalesce_seconds;
  AllocatorService service(service_options);
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  Daemon daemon(service, daemon_options);
  daemon.start();

  {
    oef::common::Rng rng(404);
    ClientOptions options;
    options.socket_path = socket_path;
    AllocatorClient setup(options);
    for (std::size_t t = 0; t < tenants; ++t) {
      const Response response =
          setup.call(make_add("tenant" + std::to_string(t), random_demand(rng, 3)));
      if (response.status != StatusCode::kOk) {
        std::printf("  setup add failed: %s\n", response.message.c_str());
      }
    }
  }

  std::vector<std::vector<double>> update_latencies(threads);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      oef::common::Rng rng(1000 + w);
      ClientOptions options;
      options.socket_path = socket_path;
      options.seed = 50 + w;
      AllocatorClient client(options);
      for (std::size_t i = 0; i < updates_per_thread; ++i) {
        // Paced arrivals: decouple the arrival rate from the service rate so
        // the coalescing window (not queue backpressure) does the batching.
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int>(rng.uniform(2000.0, 6000.0))));
        const std::string name =
            "tenant" + std::to_string(rng.uniform_int(0, static_cast<std::int64_t>(tenants) - 1));
        const double start = oef::common::monotonic_seconds();
        const Response response = client.call(make_update(name, random_demand(rng, 3)));
        const double elapsed = oef::common::monotonic_seconds() - start;
        if (response.status == StatusCode::kOk ||
            response.status == StatusCode::kDegraded) {
          update_latencies[w].push_back(elapsed * 1000.0);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Allocate + query latencies from one client, after the herd.
  std::vector<double> allocate_latencies;
  std::vector<double> query_latencies;
  {
    ClientOptions options;
    options.socket_path = socket_path;
    AllocatorClient client(options);
    for (int i = 0; i < 20; ++i) {
      Request allocate;
      allocate.type = MessageType::kAllocate;
      double start = oef::common::monotonic_seconds();
      (void)client.call(allocate);
      allocate_latencies.push_back((oef::common::monotonic_seconds() - start) * 1000.0);
      Request query;
      query.type = MessageType::kQueryAllocation;
      start = oef::common::monotonic_seconds();
      (void)client.call(query);
      query_latencies.push_back((oef::common::monotonic_seconds() - start) * 1000.0);
    }
  }

  const ServiceStats stats = service.stats();
  daemon.stop();

  std::vector<double> all_updates;
  for (const auto& bucket : update_latencies) {
    all_updates.insert(all_updates.end(), bucket.begin(), bucket.end());
  }
  LatencyRecord record;
  record.arm = arm;
  record.updates = all_updates.size();
  // Every update may have failed; the allocate and query loops always
  // record 20 samples each.
  if (!all_updates.empty()) {
    record.update_p50_ms = oef::common::percentile(all_updates, 50.0);
    record.update_p99_ms = oef::common::percentile(all_updates, 99.0);
  }
  record.allocate_p50_ms = oef::common::percentile(allocate_latencies, 50.0);
  record.allocate_p99_ms = oef::common::percentile(allocate_latencies, 99.0);
  record.query_p50_ms = oef::common::percentile(query_latencies, 50.0);
  record.query_p99_ms = oef::common::percentile(query_latencies, 99.0);
  record.resolves = stats.resolves;
  record.batches = stats.batches;
  record.max_batch = stats.max_batch_size;
  std::printf(
      "  %-10s updates=%zu p50=%.2fms p99=%.2fms | allocate p50=%.2fms | "
      "query p50=%.3fms | resolves=%zu batches=%zu max_batch=%zu\n",
      arm.c_str(), record.updates, record.update_p50_ms, record.update_p99_ms,
      record.allocate_p50_ms, record.query_p50_ms, record.resolves, record.batches,
      record.max_batch);
  return record;
}

// ---------------------------------------------------------------------------
// Warm-restore vs cold-restart pivots.
// ---------------------------------------------------------------------------

struct RestartRecord {
  std::string order;
  std::size_t warm_pivots = 0;
  std::size_t uninterrupted_pivots = 0;
  std::size_t cold_pivots = 0;
};

/// Registers tenant order[0], order[1], ... in one batch, builds a warm
/// identity, then counts the pivots of one update served by a warm restore,
/// by an uninterrupted twin of the checkpointed service and by a cold
/// restart.
RestartRecord run_restart_arm(const std::string& label, const std::vector<std::size_t>& order) {
  const std::size_t tenants = order.size();
  const std::string checkpoint = "/tmp/oefd_bench_restart.ckpt";
  std::remove(checkpoint.c_str());
  ServiceOptions options;
  options.capacities = {8.0, 4.0, 4.0};
  options.checkpoint_path = checkpoint;
  // Batch the registrations so both arms pay one resolve per wave, not one
  // per tenant.
  options.coalesce_window_seconds = 0.05;

  oef::common::Rng rng(777);
  std::vector<std::vector<double>> demands;
  for (std::size_t t = 0; t < tenants; ++t) demands.push_back(random_demand(rng, 3));

  // One batch in `order` (thread p waits until the p before it are
  // accepted), so every run of the arm solves the same LPs.
  const auto register_all = [&](AllocatorService& service) {
    const auto base = service.stats().requests_accepted;
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < tenants; ++p) {
      threads.emplace_back([&service, &demands, t = order[p], p, base] {
        while (service.stats().requests_accepted < base + p) std::this_thread::yield();
        (void)service.handle(make_add("tenant" + std::to_string(t), demands[t]));
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  // A served population with churn history.
  const auto build_history = [&](AllocatorService& service) {
    register_all(service);
    oef::common::Rng churn(9);
    for (int i = 0; i < 5; ++i) {
      (void)service.handle(make_update(
          "tenant" + std::to_string(i), random_demand(churn, 3)));
    }
  };
  ServiceOptions no_checkpoint = options;
  no_checkpoint.checkpoint_path.clear();

  // Build the warm identity.
  {
    AllocatorService service(options);
    build_history(service);
  }

  RestartRecord record;
  record.order = label;
  const Request tail = make_update("tenant0", {1.0, 1.7, 2.9});
  {
    // Warm restart: restore the checkpoint, serve one update.
    AllocatorService service(options);
    const ServiceStats before = service.stats();
    (void)service.handle(tail);
    record.warm_pivots = service.stats().lp_iterations - before.lp_iterations;
  }
  {
    // Uninterrupted twin: the same history and update, no restart. A
    // faithful restore continues exactly like it.
    AllocatorService service(no_checkpoint);
    build_history(service);
    const ServiceStats before = service.stats();
    (void)service.handle(tail);
    record.uninterrupted_pivots = service.stats().lp_iterations - before.lp_iterations;
  }
  {
    // Cold restart: same tenant set rebuilt from scratch (no checkpoint),
    // then the same update. Pivots counted from process start, as a real
    // restart would pay them.
    AllocatorService service(no_checkpoint);
    register_all(service);
    (void)service.handle(tail);
    record.cold_pivots = service.stats().lp_iterations;
  }
  std::remove(checkpoint.c_str());
  std::printf(
      "  restart pivots (%s order): warm-restore=%zu uninterrupted=%zu cold-restart=%zu "
      "(%.1fx)\n",
      label.c_str(), record.warm_pivots, record.uninterrupted_pivots, record.cold_pivots,
      record.warm_pivots > 0
          ? static_cast<double>(record.cold_pivots) / static_cast<double>(record.warm_pivots)
          : 0.0);
  return record;
}

// ---------------------------------------------------------------------------
// Overload arm.
// ---------------------------------------------------------------------------

struct OverloadRecord {
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  std::size_t internal_errors = 0;
  std::size_t shed_with_snapshot = 0;
  bool healthy_after = false;
};

OverloadRecord run_overload_arm() {
  const std::string socket_path = "/tmp/oefd_bench_overload.sock";
  ServiceOptions service_options;
  service_options.capacities = {8.0, 4.0, 4.0};
  service_options.max_queue_depth = 2;
  service_options.coalesce_window_seconds = 0.01;
  AllocatorService service(service_options);
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  Daemon daemon(service, daemon_options);
  daemon.start();

  {
    oef::common::Rng rng(5);
    ClientOptions options;
    options.socket_path = socket_path;
    AllocatorClient setup(options);
    for (int t = 0; t < 12; ++t) {
      (void)setup.call(make_add("tenant" + std::to_string(t), random_demand(rng, 3)));
    }
  }

  OverloadRecord record;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      oef::common::Rng rng(300 + w);
      ClientOptions options;
      options.socket_path = socket_path;
      options.seed = 70 + w;
      options.max_attempts = 1;  // overload must answer, not be retried away
      AllocatorClient client(options);
      for (int i = 0; i < 40; ++i) {
        const std::string name =
            "tenant" + std::to_string(rng.uniform_int(0, 11));
        const Response response = client.call(make_update(name, random_demand(rng, 3)));
        std::lock_guard<std::mutex> lock(mu);
        if (response.status == StatusCode::kOk ||
            response.status == StatusCode::kDegraded) {
          ++record.ok;
        } else if (response.status == StatusCode::kOverloaded) {
          ++record.overloaded;
          if (response.has_snapshot) ++record.shed_with_snapshot;
        } else if (response.status == StatusCode::kInternalError) {
          ++record.internal_errors;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  {
    ClientOptions options;
    options.socket_path = socket_path;
    AllocatorClient client(options);
    Request health;
    health.type = MessageType::kHealth;
    record.healthy_after = client.call(health).status == StatusCode::kOk;
  }
  daemon.stop();
  std::printf("  overload: ok=%zu overloaded=%zu (with snapshot=%zu) internal=%zu "
              "healthy_after=%s\n",
              record.ok, record.overloaded, record.shed_with_snapshot,
              record.internal_errors, record.healthy_after ? "yes" : "no");
  return record;
}

// ---------------------------------------------------------------------------
// Chaos soak: forked daemon, wire faults, kill -9 + restart mid-stream.
// ---------------------------------------------------------------------------

struct SoakRecord {
  std::size_t ops_acked = 0;
  std::size_t restarts = 0;
  std::size_t warm_restarts = 0;
  std::size_t client_retries = 0;
  bool tenants_match = false;
  bool replay_deduped = false;
  double seconds = 0.0;
};

/// Runs oefd's serving loop in a forked child and returns its pid. The child
/// exits 0 after a clean stop and 1 on CheckError (an unrestorable
/// checkpoint or an unbindable socket), as oefd does.
pid_t spawn_daemon(const std::string& socket_path, const std::string& checkpoint_path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  int status = 0;
  try {
    ServiceOptions service_options;
    service_options.capacities = {8.0, 4.0, 4.0};
    service_options.checkpoint_path = checkpoint_path;
    service_options.coalesce_window_seconds = 0.002;
    DaemonOptions daemon_options;
    daemon_options.socket_path = socket_path;
    oef::service::run_daemon(service_options, daemon_options);
  } catch (const oef::common::CheckError&) {
    status = 1;
  }
  _exit(status);
}

bool await_daemon(const std::string& socket_path) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.max_attempts = 100;
  options.initial_backoff_seconds = 0.02;
  options.max_backoff_seconds = 0.1;
  AllocatorClient probe(options);
  Request health;
  health.type = MessageType::kHealth;
  return probe.call(health).status == StatusCode::kOk;
}

double health_stat(AllocatorClient& client, const std::string& key) {
  Request health;
  health.type = MessageType::kHealth;
  const Response response = client.call(health);
  for (std::size_t i = 0; i < response.stat_keys.size(); ++i) {
    if (response.stat_keys[i] == key) return response.stat_values[i];
  }
  return -1.0;
}

SoakRecord run_soak(double soak_seconds) {
  const std::string socket_path = "/tmp/oefd_bench_soak.sock";
  const std::string checkpoint_path = "/tmp/oefd_bench_soak.ckpt";
  std::remove(checkpoint_path.c_str());

  SoakRecord record;
  pid_t pid = spawn_daemon(socket_path, checkpoint_path);
  if (pid <= 0 || !await_daemon(socket_path)) {
    std::printf("  soak: daemon failed to start\n");
    return record;
  }

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  client_options.seed = 31;
  client_options.max_attempts = 60;
  client_options.initial_backoff_seconds = 0.02;
  client_options.max_backoff_seconds = 0.25;
  client_options.response_timeout_seconds = 0.5;
  client_options.send_faults.seed = 13;
  client_options.send_faults.drop_probability = 0.05;
  client_options.send_faults.duplicate_probability = 0.05;
  client_options.send_faults.truncate_probability = 0.02;
  client_options.send_faults.corrupt_probability = 0.05;
  client_options.send_faults.delay_probability = 0.05;
  client_options.send_faults.min_delay_seconds = 0.001;
  client_options.send_faults.max_delay_seconds = 0.01;
  AllocatorClient client(client_options);

  // Sequential acked churn: every op is acknowledged before the next is
  // sent, so the expected end state is exactly the acked prefix — any
  // mismatch after a kill -9 is a lost acknowledged update.
  oef::common::Rng rng(2024);
  std::vector<std::string> expected_tenants;
  std::uint64_t last_acked_update_id = 0;
  std::string last_acked_update_name;
  std::vector<double> last_acked_update_demand;
  std::size_t next_name = 0;

  const double start = oef::common::monotonic_seconds();
  const double kill_at_1 = start + soak_seconds / 3.0;
  const double kill_at_2 = start + 2.0 * soak_seconds / 3.0;
  bool killed_1 = false;
  bool killed_2 = false;

  while (oef::common::monotonic_seconds() - start < soak_seconds) {
    const double now = oef::common::monotonic_seconds();
    if ((!killed_1 && now >= kill_at_1) || (!killed_2 && now >= kill_at_2)) {
      if (!killed_1 && now >= kill_at_1) killed_1 = true;
      else killed_2 = true;
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      pid = spawn_daemon(socket_path, checkpoint_path);
      ++record.restarts;
      if (pid <= 0 || !await_daemon(socket_path)) {
        std::printf("  soak: restart failed\n");
        return record;
      }
      ClientOptions probe_options;
      probe_options.socket_path = socket_path;
      AllocatorClient probe(probe_options);
      if (health_stat(probe, "warm_restores") >= 1.0) ++record.warm_restarts;
      continue;
    }

    Request request;
    const double dice = rng.uniform();
    if (expected_tenants.size() < 6 || dice < 0.15) {
      const std::string name = "soak" + std::to_string(next_name++);
      request = make_add(name, random_demand(rng, 3));
      const Response response = client.call(request);
      if (response.status == StatusCode::kOk) {
        expected_tenants.push_back(name);
        ++record.ops_acked;
      }
    } else if (dice < 0.25 && expected_tenants.size() > 4) {
      const std::size_t index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(expected_tenants.size()) - 1));
      request.type = MessageType::kRemoveTenant;
      request.tenant = expected_tenants[index];
      const Response response = client.call(request);
      if (response.status == StatusCode::kOk) {
        expected_tenants.erase(expected_tenants.begin() +
                               static_cast<std::ptrdiff_t>(index));
        ++record.ops_acked;
      }
    } else {
      const std::size_t index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(expected_tenants.size()) - 1));
      request = make_update(expected_tenants[index], random_demand(rng, 3));
      const Response response = client.call(request);
      if (response.status == StatusCode::kOk || response.status == StatusCode::kDegraded) {
        last_acked_update_id = response.request_id;
        last_acked_update_name = expected_tenants[index];
        last_acked_update_demand = request.demand;
        ++record.ops_acked;
      }
    }
  }

  // Verification. The daemon's tenant set must equal the acked set exactly.
  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = client.call(query);
  std::vector<std::string> served = snapshot.snapshot.tenants;
  std::vector<std::string> expected_sorted = expected_tenants;
  std::sort(served.begin(), served.end());
  std::sort(expected_sorted.begin(), expected_sorted.end());
  record.tenants_match =
      snapshot.status != StatusCode::kInternalError && served == expected_sorted;

  // Replaying the last acked update id must dedup, even across restarts.
  if (last_acked_update_id != 0) {
    Request replay = make_update(last_acked_update_name, last_acked_update_demand);
    replay.request_id = last_acked_update_id;
    const Response replayed = client.call(replay);
    record.replay_deduped =
        replayed.status == StatusCode::kOk &&
        replayed.message.find("duplicate") != std::string::npos;
  }

  record.client_retries = client.retries();
  record.seconds = oef::common::monotonic_seconds() - start;
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  std::remove(checkpoint_path.c_str());
  std::remove(socket_path.c_str());
  std::printf("  soak: %.1fs ops_acked=%zu restarts=%zu warm=%zu retries=%zu "
              "tenants_match=%s replay_deduped=%s\n",
              record.seconds, record.ops_acked, record.restarts, record.warm_restarts,
              record.client_retries, record.tenants_match ? "yes" : "no",
              record.replay_deduped ? "yes" : "no");
  return record;
}

void write_json(const std::string& path, const std::vector<LatencyRecord>& latency,
                const std::vector<RestartRecord>& restarts, const OverloadRecord& overload,
                const SoakRecord& soak) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("  (could not open %s for writing)\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"service\",\n  \"latency_arms\": [\n");
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const LatencyRecord& r = latency[i];
    std::fprintf(out,
                 "    {\"arm\": \"%s\", \"updates\": %zu, \"update_p50_ms\": %.3f, "
                 "\"update_p99_ms\": %.3f, \"allocate_p50_ms\": %.3f, "
                 "\"allocate_p99_ms\": %.3f, \"query_p50_ms\": %.4f, "
                 "\"query_p99_ms\": %.4f, \"resolves\": %zu, \"batches\": %zu, "
                 "\"max_batch\": %zu}%s\n",
                 r.arm.c_str(), r.updates, r.update_p50_ms, r.update_p99_ms,
                 r.allocate_p50_ms, r.allocate_p99_ms, r.query_p50_ms, r.query_p99_ms,
                 r.resolves, r.batches, r.max_batch,
                 i + 1 < latency.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"restart\": [\n");
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    const RestartRecord& r = restarts[i];
    std::fprintf(out,
                 "    {\"order\": \"%s\", \"warm_pivots\": %zu, "
                 "\"uninterrupted_pivots\": %zu, \"cold_pivots\": %zu}%s\n",
                 r.order.c_str(), r.warm_pivots, r.uninterrupted_pivots, r.cold_pivots,
                 i + 1 < restarts.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"overload\": {\"ok\": %zu, \"overloaded\": %zu, "
               "\"shed_with_snapshot\": %zu, \"internal_errors\": %zu, "
               "\"healthy_after\": %s},\n",
               overload.ok, overload.overloaded, overload.shed_with_snapshot,
               overload.internal_errors, overload.healthy_after ? "true" : "false");
  std::fprintf(out,
               "  \"soak\": {\"seconds\": %.1f, \"ops_acked\": %zu, \"restarts\": %zu, "
               "\"warm_restarts\": %zu, \"client_retries\": %zu, "
               "\"tenants_match\": %s, \"replay_deduped\": %s}\n}\n",
               soak.seconds, soak.ops_acked, soak.restarts, soak.warm_restarts,
               soak.client_retries, soak.tenants_match ? "true" : "false",
               soak.replay_deduped ? "true" : "false");
  std::fclose(out);
  std::printf("  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double soak_seconds = 10.0;
  std::size_t updates_per_thread = 40;
  std::string output = "BENCH_service.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--soak-seconds=", 15) == 0) {
      soak_seconds = std::stod(argv[a] + 15);
    } else if (std::strncmp(argv[a], "--updates=", 10) == 0) {
      updates_per_thread = static_cast<std::size_t>(std::stoul(argv[a] + 10));
    } else if (std::strncmp(argv[a], "--output=", 9) == 0) {
      output = argv[a] + 9;
    } else {
      std::printf("usage: %s [--soak-seconds=S] [--updates=N] [--output=PATH]\n",
                  argv[0]);
      return 1;
    }
  }

  oef::bench::print_header(
      "Service: allocator daemon latency, overload, crash-restart chaos",
      "a serving layer over warm LP state: coalesced batches, graceful "
      "shedding, and kill -9 restarts that lose nothing acknowledged");

  std::printf("\n-- latency (4 paced threads x %zu updates, 16 tenants) --\n",
              updates_per_thread);
  std::vector<LatencyRecord> latency;
  latency.push_back(run_latency_arm("unbatched", 0.0, 16, updates_per_thread, 4));
  latency.push_back(run_latency_arm("batched", 0.010, 16, updates_per_thread, 4));
  // The unbatched worker still batches naturally (it drains whatever queued
  // during the previous resolve), so the window's win is amortisation on
  // top of that: >= 1.5x fewer resolves for the same op stream.
  check("batched arm resolves >=1.5x fewer times than unbatched",
        latency[1].resolves * 3 <= latency[0].resolves * 2);
  check("batched arm batches multiple updates per resolve", latency[1].max_batch >= 2);

  std::printf("\n-- warm-restore vs cold-restart --\n");
  // Index order, and a permutation of it under which the restored service
  // once took 118 warm pivots against 152 cold: the gate holds for both.
  std::vector<std::size_t> index_order(24);
  std::iota(index_order.begin(), index_order.end(), std::size_t{0});
  const std::vector<std::size_t> permuted = {1,  0,  3,  4,  5,  2,  6,  7,  8,  9,  10, 12,
                                             14, 13, 16, 17, 18, 19, 20, 21, 22, 23, 11, 15};
  const std::vector<RestartRecord> restarts = {run_restart_arm("index", index_order),
                                               run_restart_arm("permuted", permuted)};
  for (const RestartRecord& restart : restarts) {
    check("warm restore costs >= 3x fewer pivots than cold restart (" + restart.order +
              " order)",
          restart.warm_pivots > 0 && restart.cold_pivots >= 3 * restart.warm_pivots);
    check("warm restore pivots like the uninterrupted service (" + restart.order + " order)",
          restart.warm_pivots == restart.uninterrupted_pivots);
  }

  std::printf("\n-- overload (queue depth 2, 8 threads) --\n");
  const OverloadRecord overload = run_overload_arm();
  check("overload sheds some requests", overload.overloaded > 0);
  check("every shed response carries the last-good snapshot",
        overload.shed_with_snapshot == overload.overloaded);
  check("no internal errors under overload", overload.internal_errors == 0);
  check("daemon healthy after the herd", overload.healthy_after);

  std::printf("\n-- chaos soak (%.0fs, wire faults + kill -9) --\n", soak_seconds);
  const SoakRecord soak = run_soak(soak_seconds);
  check("soak acknowledged ops", soak.ops_acked > 10);
  check("soak performed kill -9 restarts", soak.restarts >= 2);
  check("zero lost acknowledged updates (tenant sets match)", soak.tenants_match);
  check("acked request id deduped across restarts", soak.replay_deduped);
  check("every restart restored warm", soak.warm_restarts == soak.restarts);

  write_json(output, latency, restarts, overload, soak);
  std::printf("\n%d check(s) failed\n", g_failed_checks);
  return g_failed_checks;
}

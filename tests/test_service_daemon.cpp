// End-to-end daemon tests (PR 9): the framed socket protocol under a real
// Unix-domain transport, client retry + idempotency against injected wire
// faults on both paths, clean shutdown, the kill -9 chaos contract — a
// SIGKILLed daemon restarted from its checkpoint forgets nothing it
// acknowledged and comes back warm — and SIGTERM draining the daemon
// whichever of its threads receives it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/service.h"
#include "temp_path.h"

namespace oef::service {
namespace {

ServiceOptions base_service_options() {
  ServiceOptions options;
  options.capacities = {4.0, 2.0, 2.0};
  return options;
}

Request add_tenant(const std::string& name, std::vector<double> demand) {
  Request request;
  request.type = MessageType::kAddTenant;
  request.tenant = name;
  request.demand = std::move(demand);
  return request;
}

Request update_demand(const std::string& name, std::vector<double> demand) {
  Request request;
  request.type = MessageType::kUpdateDemand;
  request.tenant = name;
  request.demand = std::move(demand);
  return request;
}

TEST(Daemon, ServesRequestsOverTheSocket) {
  const std::string socket_path = tests::temp_path("oefd_basic.sock");
  AllocatorService service(base_service_options());
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  Daemon daemon(service, daemon_options);
  daemon.start();

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  AllocatorClient client(client_options);

  EXPECT_EQ(client.call(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  EXPECT_EQ(client.call(add_tenant("bob", {1.0, 1.2, 1.3})).status, StatusCode::kOk);

  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = client.call(query);
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  EXPECT_EQ(snapshot.snapshot.tenants, (std::vector<std::string>{"alice", "bob"}));

  Request health;
  health.type = MessageType::kHealth;
  const Response stats = client.call(health);
  ASSERT_EQ(stats.status, StatusCode::kOk);
  EXPECT_FALSE(stats.stat_keys.empty());

  daemon.stop();
}

TEST(Daemon, SurvivesWireFaultsWithIdempotentRetries) {
  const std::string socket_path = tests::temp_path("oefd_faults.sock");
  AllocatorService service(base_service_options());
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  daemon_options.io_timeout_seconds = 0.2;  // truncated frames die fast
  daemon_options.response_faults.seed = 7;
  daemon_options.response_faults.drop_probability = 0.1;
  daemon_options.response_faults.duplicate_probability = 0.1;
  daemon_options.response_faults.corrupt_probability = 0.1;
  Daemon daemon(service, daemon_options);
  daemon.start();

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  client_options.seed = 21;
  client_options.max_attempts = 10;
  client_options.response_timeout_seconds = 0.3;
  client_options.send_faults.seed = 5;
  client_options.send_faults.drop_probability = 0.1;
  client_options.send_faults.duplicate_probability = 0.1;
  client_options.send_faults.truncate_probability = 0.05;
  client_options.send_faults.corrupt_probability = 0.1;
  AllocatorClient client(client_options);

  // Every acknowledged op must land exactly once despite dropped requests,
  // dropped/duplicated responses, corrupt frames and truncation.
  ASSERT_EQ(client.call(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  ASSERT_EQ(client.call(add_tenant("bob", {1.0, 1.5, 1.6})).status, StatusCode::kOk);
  for (int i = 0; i < 20; ++i) {
    const Response response =
        client.call(update_demand(i % 2 == 0 ? "alice" : "bob",
                                  {1.0, 1.5 + 0.01 * i, 2.0 + 0.02 * i}));
    ASSERT_EQ(response.status, StatusCode::kOk) << "update " << i << ": "
                                                << response.message;
  }

  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = client.call(query);
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  EXPECT_EQ(snapshot.snapshot.tenants, (std::vector<std::string>{"alice", "bob"}));
  // A duplicated add (delivered twice by the wire) must not have applied
  // twice — the daemon-side dedup plus per-name conflict both guard it.
  EXPECT_EQ(service.stats().requests_shed, 0u);

  daemon.stop();
  // The fault schedule must actually have exercised the retry machinery.
  EXPECT_GT(client.fault_stats().frames_seen, 20u);
  EXPECT_GT(client.retries(), 0u);
}

TEST(Daemon, RefusesASocketPathALiveDaemonServes) {
  // A second daemon on a live daemon's path must not take it over: replacing
  // the socket file, and removing it again on stop, would leave the first
  // daemon listening where no client can reach it.
  const std::string socket_path = tests::temp_path("oefd_taken.sock");
  AllocatorService service(base_service_options());
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  Daemon daemon(service, daemon_options);
  daemon.start();
  {
    AllocatorService other_service(base_service_options());
    Daemon other(other_service, daemon_options);
    try {
      other.start();
      FAIL() << "a second daemon took over a live daemon's socket path";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kBadState);
    }
  }  // `other` stops here

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  AllocatorClient client(client_options);
  EXPECT_EQ(client.call(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  daemon.stop();
  // The daemon that bound the file removes it.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(Daemon, ShutdownRequestDrainsAndStops) {
  const std::string socket_path = tests::temp_path("oefd_shutdown.sock");
  AllocatorService service(base_service_options());
  DaemonOptions daemon_options;
  daemon_options.socket_path = socket_path;
  Daemon daemon(service, daemon_options);
  daemon.start();

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  AllocatorClient client(client_options);
  ASSERT_EQ(client.call(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  Request shutdown_request;
  shutdown_request.type = MessageType::kShutdown;
  EXPECT_EQ(client.call(shutdown_request).status, StatusCode::kOk);
  daemon.wait();  // returns because the shutdown request was seen
  daemon.stop();

  // The service drained: mutations now get kShuttingDown at the service
  // layer (no daemon needed to verify).
  EXPECT_EQ(service.handle(add_tenant("bob", {1.0, 1.0, 1.0})).status,
            StatusCode::kShuttingDown);
}

// --- kill -9 + restart chaos ----------------------------------------------

/// Runs oefd's serving loop in a forked child (no exec: the child shares the
/// binary). Returns the child pid; the child serves until a signal or a
/// shutdown request, and exits 0 after a clean stop (1 on CheckError).
pid_t spawn_daemon(const std::string& socket_path, const std::string& checkpoint_path = {}) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child. _exit so no gtest/atexit machinery runs here.
  int status = 0;
  try {
    ServiceOptions service_options = base_service_options();
    service_options.checkpoint_path = checkpoint_path;
    DaemonOptions daemon_options;
    daemon_options.socket_path = socket_path;
    run_daemon(service_options, daemon_options);
  } catch (const common::CheckError&) {
    status = 1;
  }
  _exit(status);
}

void await_daemon(const std::string& socket_path) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.max_attempts = 50;
  options.initial_backoff_seconds = 0.02;
  options.max_backoff_seconds = 0.1;
  AllocatorClient probe(options);
  Request health;
  health.type = MessageType::kHealth;
  ASSERT_EQ(probe.call(health).status, StatusCode::kOk) << "daemon did not come up";
}

TEST(DaemonChaos, Kill9LosesNoAcknowledgedUpdateAndRestoresWarm) {
  const std::string socket_path = tests::temp_path("oefd_chaos.sock");
  const std::string checkpoint_path = tests::temp_path("oefd_chaos.ckpt");
  std::remove(checkpoint_path.c_str());

  pid_t daemon_pid = spawn_daemon(socket_path, checkpoint_path);
  ASSERT_GT(daemon_pid, 0);
  await_daemon(socket_path);

  ClientOptions client_options;
  client_options.socket_path = socket_path;
  client_options.seed = 11;
  client_options.max_attempts = 50;
  client_options.initial_backoff_seconds = 0.02;
  client_options.max_backoff_seconds = 0.2;
  AllocatorClient client(client_options);

  // Phase 1: acknowledged churn. Remember the acked request ids.
  std::vector<std::uint64_t> acked_ids;
  const auto call_acked = [&](Request request) {
    const Response response = client.call(std::move(request));
    ASSERT_EQ(response.status, StatusCode::kOk) << response.message;
    acked_ids.push_back(response.request_id);
  };
  call_acked(add_tenant("alice", {1.0, 2.0, 3.0}));
  call_acked(add_tenant("bob", {1.0, 1.5, 1.6}));
  call_acked(add_tenant("carol", {1.0, 1.1, 2.9}));
  call_acked(update_demand("bob", {1.0, 1.8, 1.9}));

  // kill -9: no destructors, no flush — only the checkpoint survives.
  ASSERT_EQ(kill(daemon_pid, SIGKILL), 0);
  waitpid(daemon_pid, nullptr, 0);

  daemon_pid = spawn_daemon(socket_path, checkpoint_path);
  ASSERT_GT(daemon_pid, 0);
  await_daemon(socket_path);

  // Zero lost acknowledged updates: the restarted daemon knows every acked
  // mutation. Replaying an acked id must report "already applied", not
  // apply again.
  Request replay = add_tenant("alice", {1.0, 2.0, 3.0});
  replay.request_id = acked_ids[0];
  const Response replayed = client.call(replay);
  EXPECT_EQ(replayed.status, StatusCode::kOk);
  EXPECT_NE(replayed.message.find("duplicate"), std::string::npos)
      << "acked add was lost by the restart";

  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = client.call(query);
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  EXPECT_EQ(snapshot.snapshot.tenants,
            (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_GT(snapshot.snapshot.version, 0u);

  // Warm restore: the restarted daemon reports it in health (warm_restores
  // is 1 for the lifetime of the restarted process).
  Request health;
  health.type = MessageType::kHealth;
  const Response stats = client.call(health);
  double warm_restores = 0.0;
  for (std::size_t i = 0; i < stats.stat_keys.size(); ++i) {
    if (stats.stat_keys[i] == "warm_restores") warm_restores = stats.stat_values[i];
  }
  EXPECT_EQ(warm_restores, 1.0) << "restart did not come back warm";

  // Churn continues normally after the restart.
  EXPECT_EQ(client.call(update_demand("carol", {1.0, 1.3, 3.2})).status, StatusCode::kOk);

  kill(daemon_pid, SIGKILL);
  waitpid(daemon_pid, nullptr, 0);
  std::remove(checkpoint_path.c_str());
  std::remove(socket_path.c_str());
}

// --- signals ---------------------------------------------------------------

/// Thread ids of process `pid` in ascending order. The daemon starts its
/// threads in a fixed order, so one index names the same thread in every
/// fresh daemon.
std::vector<pid_t> thread_ids(pid_t pid) {
  std::vector<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/" + std::to_string(pid) + "/task")) {
    ids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Reaps a forked daemon: await() waits for its exit; a guard still holding
/// the pid when it goes out of scope (a failed assertion) SIGKILLs it, so no
/// test leaves a daemon running.
class Child {
 public:
  explicit Child(pid_t pid) : pid_(pid) {}
  ~Child() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Exit status once the child exits within `seconds`; -1 (after SIGKILL)
  /// if it does not.
  int await(double seconds) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > give_up) return -1;  // the destructor kills it
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = 0;
    return status;
  }

 private:
  pid_t pid_;
};

TEST(DaemonSignals, SigtermToAnyThreadDrainsAndExitsCleanly) {
  // kill(tid, SIGTERM) is process-directed but lands on thread `tid` first
  // when that thread does not block it. A handler that ran Daemon::stop() on
  // the thread it interrupted aborted on every thread but main (stop() joins
  // threads, so on the accept thread it joined itself).
  const std::string socket_path = tests::temp_path("oefd_signal.sock");
  std::size_t num_threads = 1;  // read from each daemon
  for (std::size_t t = 0; t < num_threads; ++t) {
    SCOPED_TRACE("thread index " + std::to_string(t));
    Child daemon(spawn_daemon(socket_path));
    ASSERT_GT(daemon.pid(), 0);
    await_daemon(socket_path);
    ClientOptions options;
    options.socket_path = socket_path;
    AllocatorClient client(options);
    ASSERT_EQ(client.call(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);

    const std::vector<pid_t> ids = thread_ids(daemon.pid());
    // Main, the service worker, accept, one connection and the signal
    // thread; a sanitizer runtime may add one of its own.
    ASSERT_GE(ids.size(), 5u);
    ASSERT_LT(t, ids.size());
    num_threads = ids.size();
    ASSERT_EQ(kill(ids[t], SIGTERM), 0);
    const int status = daemon.await(10.0);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

TEST(DaemonSignals, ShutdownRequestEndsTheServingLoop) {
  const std::string socket_path = tests::temp_path("oefd_signal_shutdown.sock");
  Child daemon(spawn_daemon(socket_path));
  ASSERT_GT(daemon.pid(), 0);
  await_daemon(socket_path);
  ClientOptions options;
  options.socket_path = socket_path;
  AllocatorClient client(options);
  Request shutdown_request;
  shutdown_request.type = MessageType::kShutdown;
  EXPECT_EQ(client.call(shutdown_request).status, StatusCode::kOk);
  const int status = daemon.await(10.0);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace oef::service

// In-process contract of the AllocatorService: tenant churn over warm
// solver state, idempotent dedup, admission control + load shedding with
// last-good snapshots, queue deadlines, update coalescing, and the
// checkpoint round-trip determinism guarantee — a service restored from a
// mid-churn checkpoint resolves the next update pivot-identically and lands
// on the bit-identical allocation of an uninterrupted run. Only the current
// checkpoint format version is read.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/serial.h"
#include "core/speedup_matrix.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "temp_path.h"

namespace oef::service {
namespace {

ServiceOptions base_options() {
  ServiceOptions options;
  options.capacities = {4.0, 2.0, 2.0};
  options.mode = core::OefAllocator::Mode::kCooperative;
  return options;
}

Request add_tenant(const std::string& name, std::vector<double> demand,
                   double weight = 1.0, std::uint64_t id = 0) {
  Request request;
  request.type = MessageType::kAddTenant;
  request.request_id = id;
  request.tenant = name;
  request.demand = std::move(demand);
  request.weight = weight;
  return request;
}

Request update_demand(const std::string& name, std::vector<double> demand,
                      double weight = 1.0, std::uint64_t id = 0) {
  Request request;
  request.type = MessageType::kUpdateDemand;
  request.request_id = id;
  request.tenant = name;
  request.demand = std::move(demand);
  request.weight = weight;
  return request;
}

TEST(AllocatorService, ChurnLifecycleServesFeasibleSnapshots) {
  AllocatorService service(base_options());
  EXPECT_EQ(service.snapshot()->version, 0u);

  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  ASSERT_EQ(service.handle(add_tenant("bob", {1.0, 1.5, 1.6})).status, StatusCode::kOk);
  const Response added = service.handle(add_tenant("carol", {1.0, 1.1, 4.0}, 2.0));
  ASSERT_EQ(added.status, StatusCode::kOk);
  ASSERT_TRUE(added.has_snapshot);
  EXPECT_EQ(added.snapshot.tenants.size(), 3u);

  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = service.handle(query);
  ASSERT_EQ(snapshot.status, StatusCode::kOk);
  ASSERT_EQ(snapshot.snapshot.shares.size(), 3u);
  // Column sums must respect capacities.
  for (std::size_t j = 0; j < 3; ++j) {
    double used = 0.0;
    for (const auto& row : snapshot.snapshot.shares) used += row[j];
    EXPECT_LE(used, base_options().capacities[j] + 1e-6);
  }
  EXPECT_GT(snapshot.snapshot.total_efficiency, 0.0);

  ASSERT_EQ(service.handle(update_demand("bob", {1.0, 3.0, 3.1})).status, StatusCode::kOk);
  Request remove;
  remove.type = MessageType::kRemoveTenant;
  remove.tenant = "alice";
  ASSERT_EQ(service.handle(remove).status, StatusCode::kOk);
  const Response after = service.handle(query);
  EXPECT_EQ(after.snapshot.tenants, (std::vector<std::string>{"bob", "carol"}));
  EXPECT_GT(after.snapshot.version, snapshot.snapshot.version);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.resolves, 5u);
  EXPECT_EQ(stats.requests_shed, 0u);
}

TEST(AllocatorService, PerOpErrorsDoNotPoisonTheBatch) {
  AllocatorService service(base_options());
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);

  EXPECT_EQ(service.handle(add_tenant("alice", {1.0, 1.0, 1.0})).status,
            StatusCode::kAlreadyExists);
  Request remove;
  remove.type = MessageType::kRemoveTenant;
  remove.tenant = "ghost";
  EXPECT_EQ(service.handle(remove).status, StatusCode::kNotFound);
  EXPECT_EQ(service.handle(update_demand("ghost", {1.0, 1.0, 1.0})).status,
            StatusCode::kNotFound);
  // Wrong arity and non-positive demand are rejected before queueing.
  EXPECT_EQ(service.handle(add_tenant("bob", {1.0, 2.0})).status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.handle(add_tenant("bob", {1.0, -2.0, 1.0})).status,
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.handle(add_tenant("bob", {1.0, 2.0, 1.0}, -1.0)).status,
            StatusCode::kInvalidArgument);

  // The registry survived all of it.
  Request query;
  query.type = MessageType::kQueryAllocation;
  EXPECT_EQ(service.handle(query).snapshot.tenants,
            (std::vector<std::string>{"alice"}));
}

TEST(AllocatorService, DuplicateRequestIdsApplyOnce) {
  AllocatorService service(base_options());
  const Request add = add_tenant("alice", {1.0, 2.0, 3.0}, 1.0, /*id=*/1111);
  ASSERT_EQ(service.handle(add).status, StatusCode::kOk);
  const Response duplicate = service.handle(add);
  EXPECT_EQ(duplicate.status, StatusCode::kOk);
  EXPECT_NE(duplicate.message.find("duplicate"), std::string::npos);
  EXPECT_EQ(duplicate.snapshot.tenants.size(), 1u);
  EXPECT_EQ(service.stats().duplicates_served, 1u);

  // A different id with the same content is a real (conflicting) add.
  EXPECT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0}, 1.0, 2222)).status,
            StatusCode::kAlreadyExists);
}

TEST(AllocatorService, OverloadShedsWithLastGoodSnapshot) {
  ServiceOptions options = base_options();
  options.max_queue_depth = 0;  // every droppable op overflows immediately
  AllocatorService service(options);
  // Non-droppable ops are admitted past the bound...
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  // ...while droppable ones shed with the last-good snapshot attached.
  const Response shed = service.handle(update_demand("alice", {1.0, 4.0, 4.0}));
  EXPECT_EQ(shed.status, StatusCode::kOverloaded);
  ASSERT_TRUE(shed.has_snapshot);
  EXPECT_EQ(shed.snapshot.tenants, (std::vector<std::string>{"alice"}));
  EXPECT_GE(service.stats().requests_shed, 1u);

  Request allocate;
  allocate.type = MessageType::kAllocate;
  EXPECT_EQ(service.handle(allocate).status, StatusCode::kOverloaded);
}

TEST(AllocatorService, OldestDroppableShedsFirstUnderPressure) {
  ServiceOptions options = base_options();
  options.max_queue_depth = 2;
  options.coalesce_window_seconds = 0.4;  // hold the worker so the queue fills
  AllocatorService service(options);
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);

  // First update is popped by the worker and held for the window; the next
  // two sit in the queue (depth 2); the fourth forces the oldest queued
  // droppable out with kOverloaded.
  std::vector<Response> responses(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&service, &responses, i] {
      responses[static_cast<std::size_t>(i)] = service.handle(
          update_demand("alice", {1.0, 2.0, 3.0 + i}, 1.0,
                        static_cast<std::uint64_t>(9000 + i)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  for (std::thread& thread : threads) thread.join();

  int overloaded = 0;
  int ok = 0;
  for (const Response& response : responses) {
    if (response.status == StatusCode::kOverloaded) {
      ++overloaded;
      EXPECT_TRUE(response.has_snapshot);
    } else {
      EXPECT_EQ(response.status, StatusCode::kOk);
      ++ok;
    }
  }
  EXPECT_EQ(overloaded, 1);
  EXPECT_EQ(ok, 3);
  // The shed victim must be the oldest queued droppable: the first queued
  // update (index 1; index 0 was already claimed by the worker).
  EXPECT_EQ(responses[1].status, StatusCode::kOverloaded);
  EXPECT_GE(service.stats().max_queue_depth_seen, 2u);
}

TEST(AllocatorService, QueueDeadlineExpiresWithoutApplying) {
  ServiceOptions options = base_options();
  options.coalesce_window_seconds = 0.15;  // queueing delay > deadline
  AllocatorService service(options);
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);

  Request update = update_demand("alice", {1.0, 9.0, 9.0});
  update.deadline_seconds = 1e-4;
  const Response response = service.handle(update);
  EXPECT_EQ(response.status, StatusCode::kDeadlineExpired);
  EXPECT_GE(service.stats().deadline_expirations, 1u);

  // The expired update must not have touched the registry.
  Request query;
  query.type = MessageType::kQueryAllocation;
  const Response snapshot = service.handle(query);
  EXPECT_EQ(snapshot.snapshot.tenants, (std::vector<std::string>{"alice"}));
}

TEST(AllocatorService, CoalescingBatchesUpdatesIntoOneResolve) {
  ServiceOptions options = base_options();
  options.coalesce_window_seconds = 0.25;
  AllocatorService service(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(service
                  .handle(add_tenant("t" + std::to_string(i),
                                     {1.0, 1.5 + 0.1 * i, 2.0 + 0.2 * i}))
                  .status,
              StatusCode::kOk);
  }
  const ServiceStats before = service.stats();

  std::vector<std::thread> threads;
  std::vector<Response> responses(6);
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&service, &responses, i] {
      responses[static_cast<std::size_t>(i)] = service.handle(
          update_demand("t" + std::to_string(i % 4), {1.0, 2.0 + 0.1 * i, 3.0}));
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ServiceStats after = service.stats();

  for (const Response& response : responses) EXPECT_EQ(response.status, StatusCode::kOk);
  // Six updates, far fewer resolves: the window coalesced them. (Two
  // batches can happen when a thread lands after the first window closes.)
  EXPECT_LE(after.resolves - before.resolves, 3u);
  EXPECT_GE(after.max_batch_size, 3u);
  // Updates to the same tenant collapsed to last-writer-wins within a batch.
  Request query;
  query.type = MessageType::kQueryAllocation;
  EXPECT_EQ(service.handle(query).snapshot.tenants.size(), 4u);
}

TEST(AllocatorService, EmptyRegistryAllocatesEmptySnapshot) {
  AllocatorService service(base_options());
  Request allocate;
  allocate.type = MessageType::kAllocate;
  const Response response = service.handle(allocate);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_TRUE(response.snapshot.tenants.empty());
  EXPECT_GE(response.snapshot.version, 1u);
}

TEST(AllocatorService, HealthReportsStats) {
  AllocatorService service(base_options());
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  Request health;
  health.type = MessageType::kHealth;
  const Response response = service.handle(health);
  ASSERT_EQ(response.status, StatusCode::kOk);
  ASSERT_EQ(response.stat_keys.size(), response.stat_values.size());
  double resolves = -1.0;
  for (std::size_t i = 0; i < response.stat_keys.size(); ++i) {
    if (response.stat_keys[i] == "resolves") resolves = response.stat_values[i];
  }
  EXPECT_GE(resolves, 1.0);
}

// --- Checkpoint round-trip determinism (PR 9 satellite) --------------------

struct ChurnScript {
  static void run_prefix(AllocatorService& service) {
    ASSERT_EQ(service.handle(add_tenant("a", {1.0, 1.9, 2.8})).status, StatusCode::kOk);
    ASSERT_EQ(service.handle(add_tenant("b", {1.0, 1.4, 1.5}, 2.0)).status,
              StatusCode::kOk);
    ASSERT_EQ(service.handle(add_tenant("c", {1.0, 2.5, 2.6})).status, StatusCode::kOk);
    ASSERT_EQ(service.handle(add_tenant("d", {1.0, 1.1, 3.9})).status, StatusCode::kOk);
    ASSERT_EQ(service.handle(update_demand("b", {1.0, 1.8, 1.9}, 2.0)).status,
              StatusCode::kOk);
    Request remove;
    remove.type = MessageType::kRemoveTenant;
    remove.tenant = "c";
    ASSERT_EQ(service.handle(remove).status, StatusCode::kOk);
    ASSERT_EQ(service.handle(add_tenant("e", {1.0, 2.0, 2.1})).status, StatusCode::kOk);
  }

  static Request tail_update() { return update_demand("d", {1.0, 1.6, 3.0}); }
};

TEST(AllocatorService, CheckpointRestoreIsPivotIdenticalAndBitIdentical) {
  const std::string ckpt_a = tests::temp_path("oef_ckpt_uninterrupted");
  const std::string ckpt_b = tests::temp_path("oef_ckpt_restored");
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());

  // Uninterrupted run: prefix churn, then the tail update, measuring the
  // tail resolve's pivots.
  ServiceOptions options = base_options();
  options.checkpoint_path = ckpt_a;
  std::uint64_t uninterrupted_pivots = 0;
  WireSnapshot uninterrupted_snapshot;
  {
    AllocatorService service(options);
    ChurnScript::run_prefix(service);
    const ServiceStats before = service.stats();
    const Response response = service.handle(ChurnScript::tail_update());
    ASSERT_EQ(response.status, StatusCode::kOk);
    const ServiceStats after = service.stats();
    uninterrupted_pivots = after.lp_iterations - before.lp_iterations;
    uninterrupted_snapshot = response.snapshot;
  }

  // Interrupted run: the same prefix, then the service is torn down and a
  // fresh instance restores from the checkpoint before the tail update.
  options.checkpoint_path = ckpt_b;
  {
    AllocatorService service(options);
    ChurnScript::run_prefix(service);
    service.shutdown();
  }
  {
    AllocatorService service(options);
    ASSERT_TRUE(service.restored_from_checkpoint());
    EXPECT_TRUE(service.restored_warm());
    // The restored snapshot must be byte-identical in content.
    EXPECT_EQ(service.snapshot()->tenants,
              (std::vector<std::string>{"a", "b", "d", "e"}));

    const ServiceStats before = service.stats();
    const Response response = service.handle(ChurnScript::tail_update());
    ASSERT_EQ(response.status, StatusCode::kOk);
    const ServiceStats after = service.stats();
    const std::uint64_t restored_pivots = after.lp_iterations - before.lp_iterations;

    // Pivot-identical: the restored warm state is the same warm state.
    EXPECT_EQ(restored_pivots, uninterrupted_pivots);
    // Bit-identical allocation.
    ASSERT_EQ(response.snapshot.shares.size(), uninterrupted_snapshot.shares.size());
    for (std::size_t row = 0; row < response.snapshot.shares.size(); ++row) {
      ASSERT_EQ(response.snapshot.shares[row].size(),
                uninterrupted_snapshot.shares[row].size());
      for (std::size_t j = 0; j < response.snapshot.shares[row].size(); ++j) {
        EXPECT_EQ(0, std::memcmp(&response.snapshot.shares[row][j],
                                 &uninterrupted_snapshot.shares[row][j],
                                 sizeof(double)))
            << "row " << row << " type " << j;
      }
    }
    EXPECT_EQ(0, std::memcmp(&response.snapshot.total_efficiency,
                             &uninterrupted_snapshot.total_efficiency, sizeof(double)));
  }
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
}

TEST(AllocatorService, DedupSurvivesRestart) {
  const std::string path = tests::temp_path("oef_ckpt_dedup");
  std::remove(path.c_str());
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  {
    AllocatorService service(options);
    ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0}, 1.0, 555)).status,
              StatusCode::kOk);
  }
  {
    AllocatorService service(options);
    ASSERT_TRUE(service.restored_from_checkpoint());
    // The same id retried against the restarted daemon must not re-apply.
    const Response duplicate =
        service.handle(add_tenant("alice", {1.0, 2.0, 3.0}, 1.0, 555));
    EXPECT_EQ(duplicate.status, StatusCode::kOk);
    EXPECT_NE(duplicate.message.find("duplicate"), std::string::npos);
    EXPECT_EQ(service.snapshot()->tenants.size(), 1u);
  }
  std::remove(path.c_str());
}

TEST(AllocatorService, CorruptCheckpointRefusesToStart) {
  const std::string path = tests::temp_path("oef_ckpt_corrupt");
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs("OEFCKPT1 this is not a valid checkpoint", file);
    std::fclose(file);
  }
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  try {
    AllocatorService service(options);
    FAIL() << "corrupt checkpoint must not be silently ignored";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
  std::remove(path.c_str());
}

TEST(AllocatorService, BatchThatEmptiesTheRegistryKeepsTheRestoredIdentity) {
  const std::string path = tests::temp_path("oef_ckpt_emptied");
  std::remove(path.c_str());
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  const std::vector<double> demand = {1.0, 2.0, 3.0};

  // The allocator record the service writes after serving `demand` alone:
  // the same deterministic allocate on a standalone allocator.
  std::string record;
  {
    const core::OefAllocator allocator(options.mode);
    ASSERT_TRUE(allocator
                    .allocate_weighted(core::SpeedupMatrix({demand}), {1.0},
                                       options.capacities, {0})
                    .ok());
    common::SerialWriter out;
    allocator.save_warm_state(out);
    record = out.take();
  }
  const auto ends_with_record = [&](const std::string& payload) {
    return payload.size() >= record.size() &&
           payload.compare(payload.size() - record.size(), record.size(), record) == 0;
  };
  {
    AllocatorService service(options);
    ASSERT_EQ(service.handle(add_tenant("solo", demand)).status, StatusCode::kOk);
  }
  const std::optional<std::string> written = load_checkpoint(path);
  ASSERT_TRUE(written.has_value());
  ASSERT_TRUE(ends_with_record(*written));

  // The restored identity waits for a resolve; a batch that empties the
  // registry runs none, so the next checkpoint carries the identity as it
  // was imported.
  {
    AllocatorService service(options);
    ASSERT_TRUE(service.restored_warm());
    Request remove;
    remove.type = MessageType::kRemoveTenant;
    remove.tenant = "solo";
    ASSERT_EQ(service.handle(remove).status, StatusCode::kOk);
    EXPECT_EQ(service.stats().resolves, 0u);
  }
  const std::optional<std::string> rewritten = load_checkpoint(path);
  ASSERT_TRUE(rewritten.has_value());
  EXPECT_NE(*rewritten, *written);
  EXPECT_TRUE(ends_with_record(*rewritten));
  {
    AllocatorService service(options);
    EXPECT_TRUE(service.restored_warm());
    EXPECT_TRUE(service.snapshot()->tenants.empty());
  }
  std::remove(path.c_str());
}

TEST(AllocatorService, RestoreJustBeforeChurnContinuesIdentically) {
  // The checkpoint written before a batch that holds one add and one remove
  // carries the allocator's id order, so the restored service translates its
  // identity onto the reshaped LP exactly as the uninterrupted one: the batch
  // starts warm on both sides, with the same statuses and pivots and a
  // bit-identical snapshot.
  const std::string ckpt_a = tests::temp_path("oef_ckpt_churn_uninterrupted");
  const std::string ckpt_b = tests::temp_path("oef_ckpt_churn_restored");
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
  ServiceOptions options = base_options();
  // A window wide enough that the two concurrent requests share one batch.
  options.coalesce_window_seconds = 0.2;
  const auto prefix = [](AllocatorService& service) {
    for (const auto& [name, demand] : std::vector<std::pair<std::string, std::vector<double>>>{
             {"a", {1.0, 1.9, 2.8}}, {"b", {1.0, 1.4, 1.5}}, {"c", {1.0, 2.5, 2.6}},
             {"d", {1.0, 1.1, 3.9}}}) {
      ASSERT_EQ(service.handle(add_tenant(name, demand)).status, StatusCode::kOk);
    }
  };
  struct Outcome {
    std::vector<StatusCode> statuses;
    std::uint64_t pivots = 0;
    std::uint64_t cold_pivots = 0;
    std::uint64_t batches = 0;
    WireSnapshot snapshot;
  };
  const auto churn = [](AllocatorService& service) {
    Request remove;
    remove.type = MessageType::kRemoveTenant;
    remove.tenant = "b";
    const std::vector<Request> batch = {add_tenant("e", {1.0, 2.0, 2.1}), remove};
    const ServiceStats before = service.stats();
    std::vector<Response> responses(batch.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      threads.emplace_back([&, i] { responses[i] = service.handle(batch[i]); });
    }
    for (std::thread& thread : threads) thread.join();
    const ServiceStats after = service.stats();
    Outcome outcome;
    for (const Response& response : responses) outcome.statuses.push_back(response.status);
    outcome.pivots = after.lp_iterations - before.lp_iterations;
    outcome.cold_pivots = after.cold_lp_iterations - before.cold_lp_iterations;
    outcome.batches = after.batches - before.batches;
    Request query;
    query.type = MessageType::kQueryAllocation;
    outcome.snapshot = service.handle(query).snapshot;
    return outcome;
  };

  options.checkpoint_path = ckpt_a;
  Outcome uninterrupted;
  {
    AllocatorService service(options);
    prefix(service);
    uninterrupted = churn(service);
  }
  options.checkpoint_path = ckpt_b;
  {
    AllocatorService service(options);
    prefix(service);
  }
  Outcome restored;
  {
    AllocatorService service(options);
    ASSERT_TRUE(service.restored_warm());
    restored = churn(service);
  }

  ASSERT_EQ(uninterrupted.batches, 1u);
  ASSERT_EQ(restored.batches, 1u);
  EXPECT_EQ(restored.statuses, uninterrupted.statuses);
  for (const StatusCode status : restored.statuses) EXPECT_EQ(status, StatusCode::kOk);
  EXPECT_GT(restored.pivots, 0u);
  EXPECT_EQ(restored.cold_pivots, 0u);
  EXPECT_EQ(uninterrupted.cold_pivots, 0u);
  EXPECT_EQ(restored.pivots, uninterrupted.pivots);
  EXPECT_EQ(restored.snapshot.tenants, (std::vector<std::string>{"a", "c", "d", "e"}));
  EXPECT_EQ(restored.snapshot.tenants, uninterrupted.snapshot.tenants);
  ASSERT_EQ(restored.snapshot.shares.size(), uninterrupted.snapshot.shares.size());
  for (std::size_t row = 0; row < restored.snapshot.shares.size(); ++row) {
    ASSERT_EQ(restored.snapshot.shares[row].size(), uninterrupted.snapshot.shares[row].size());
    for (std::size_t j = 0; j < restored.snapshot.shares[row].size(); ++j) {
      EXPECT_EQ(0, std::memcmp(&restored.snapshot.shares[row][j],
                               &uninterrupted.snapshot.shares[row][j], sizeof(double)))
          << "row " << row << " type " << j;
    }
  }
  EXPECT_EQ(0, std::memcmp(&restored.snapshot.total_efficiency,
                           &uninterrupted.snapshot.total_efficiency, sizeof(double)));
  std::remove(ckpt_a.c_str());
  std::remove(ckpt_b.c_str());
}

TEST(AllocatorService, CheckpointWithRepeatedOrUnassignedTenantIdRefusesToStart) {
  // Tenant ids are the allocator's stable user ids: a restored registry with
  // two tenants on one id, or an id the service has not handed out yet
  // (which the next add_tenant would hand out again), is corrupt.
  const std::string path = tests::temp_path("oef_ckpt_tenant_ids");
  std::remove(path.c_str());
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  {
    AllocatorService service(options);
    ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
    ASSERT_EQ(service.handle(add_tenant("bob", {1.0, 1.5, 2.0})).status, StatusCode::kOk);
  }
  const std::optional<std::string> payload = load_checkpoint(path);
  ASSERT_TRUE(payload.has_value());
  // Re-serialise the registry with the second tenant's id replaced; the
  // rest of the payload follows unchanged.
  const auto with_second_id = [&](bool repeat_first) {
    common::SerialReader in(*payload);
    common::SerialWriter original;
    common::SerialWriter rewritten;
    const std::uint64_t version = in.u64();
    const std::uint64_t next_id = in.u64();
    const std::uint64_t count = in.count();
    for (common::SerialWriter* out : {&original, &rewritten}) {
      out->u64(version);
      out->u64(next_id);
      out->u64(count);
    }
    std::uint64_t first_id = 0;
    for (std::uint64_t t = 0; t < count; ++t) {
      const std::uint64_t id = in.u64();
      const std::string name = in.str();
      const double weight = in.f64();
      const std::vector<double> demand = in.f64_vec();
      if (t == 0) first_id = id;
      for (common::SerialWriter* out : {&original, &rewritten}) {
        const bool replace = out == &rewritten && t == 1;
        out->u64(replace ? (repeat_first ? first_id : next_id) : id);
        out->str(name);
        out->f64(weight);
        out->f64_vec(demand);
      }
    }
    EXPECT_EQ(payload->compare(0, original.data().size(), original.data()), 0);
    return rewritten.data() + payload->substr(original.data().size());
  };
  for (const bool repeat_first : {true, false}) {
    SCOPED_TRACE(repeat_first ? "repeated id" : "unassigned id");
    write_checkpoint(path, with_second_id(repeat_first));
    try {
      AllocatorService service(options);
      FAIL() << "the checkpoint's tenant ids must be refused";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
    }
  }
  std::remove(path.c_str());
}

TEST(AllocatorService, VersionTwoCheckpointRefusesToStart) {
  const std::string path = tests::temp_path("oef_ckpt_v2");
  std::remove(path.c_str());
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  {
    AllocatorService service(options);
    ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  }
  const std::optional<std::string> payload = load_checkpoint(path);
  ASSERT_TRUE(payload.has_value());
  // The same container around the same payload, with version 2 (no id
  // order in the allocator record) and a checksum that verifies.
  ASSERT_EQ(kCheckpointVersion, 3u);
  common::SerialWriter header;
  header.u64(2);
  header.u64(payload->size());
  header.u64(common::fnv1a64(*payload));
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string bytes = "OEFCKPT1" + header.data() + *payload;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }
  try {
    (void)load_checkpoint(path);
    FAIL() << "a version 2 checkpoint was loaded";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
  try {
    AllocatorService service(options);
    FAIL() << "a version 2 checkpoint must not start the service";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
  std::remove(path.c_str());
}

TEST(AllocatorService, NonFiniteDemandOrWeightIsRejected) {
  AllocatorService service(base_options());
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  const std::shared_ptr<const WireSnapshot> before = service.snapshot();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Request> rejected = {
      add_tenant("bob", {1.0, inf, 2.0}),          add_tenant("bob", {1.0, nan, 2.0}),
      add_tenant("bob", {1.0, 1.5, 2.0}, inf),     add_tenant("bob", {1.0, 1.5, 2.0}, nan),
      update_demand("alice", {1.0, 2.0, inf}),     update_demand("alice", {1.0, 2.0, 3.0}, nan),
  };
  for (const Request& request : rejected) {
    EXPECT_EQ(service.handle(request).status, StatusCode::kInvalidArgument)
        << to_string(request.type);
  }
  // Nothing was applied or published: the same snapshot object is current.
  EXPECT_EQ(service.snapshot(), before);
  EXPECT_EQ(service.snapshot()->tenants, std::vector<std::string>{"alice"});
  EXPECT_TRUE(std::isfinite(service.snapshot()->total_efficiency));
}

TEST(AllocatorService, OverflowingEfficiencyIsNeverPublished) {
  AllocatorService service(base_options());
  ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  const std::shared_ptr<const WireSnapshot> before = service.snapshot();
  // Finite and positive, so it validates, but the efficiency sum overflows.
  const Response response = service.handle(add_tenant("bob", {1.0, 0x1p+1023, 2.0}));
  EXPECT_EQ(response.status, StatusCode::kFailed);
  EXPECT_EQ(service.snapshot(), before);
  EXPECT_TRUE(std::isfinite(service.snapshot()->total_efficiency));
}

TEST(AllocatorService, CheckpointWithOtherTypeCountRefusesToStart) {
  const std::string path = tests::temp_path("oef_ckpt_arity");
  std::remove(path.c_str());
  ServiceOptions options = base_options();
  options.checkpoint_path = path;
  {
    AllocatorService service(options);
    ASSERT_EQ(service.handle(add_tenant("alice", {1.0, 2.0, 3.0})).status, StatusCode::kOk);
  }
  // Restarted with a different --capacities arity: the restored demand rows
  // no longer fit, which must stop the service instead of aborting later.
  options.capacities = {4.0, 2.0};
  try {
    AllocatorService service(options);
    FAIL() << "a 3-type checkpoint restored under 2 capacities must not start";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(ServiceCheckpointContainer, RoundTripAndTamperDetection) {
  const std::string path = tests::temp_path("oef_ckpt_container");
  const std::string payload = "42 hello 0x1.8p1 tokens";
  write_checkpoint(path, payload);
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  EXPECT_FALSE(load_checkpoint(path + ".does_not_exist").has_value());

  // Flip one byte in the stored payload: the checksum must reject it.
  {
    std::FILE* file = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, -2, SEEK_END);
    std::fputc('X', file);
    std::fclose(file);
  }
  try {
    (void)load_checkpoint(path);
    FAIL();
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oef::service

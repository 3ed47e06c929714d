// The allocator service (PR 9 tentpole): a long-lived, warm-state-owning
// serving core behind the daemon's socket front end.
//
// One worker thread owns the tenant registry and the OefAllocator, so every
// resolve rides the allocator's warm machinery — basis reuse across calls and
// the identity-keyed envy pool across tenant churn — exactly as the
// round-over-round simulator does, but driven by a request stream instead of
// a clock.
//
// Robustness envelope:
//
//   * Admission control. Mutations pass through a bounded queue. When it is
//     full, the oldest *droppable* op (update_demand / allocate) is shed with
//     kOverloaded plus the last-good snapshot, so overload degrades the
//     answer instead of growing the queue without bound. add/remove_tenant
//     are never shed — shedding a departure would leak a tenant forever.
//   * Deadlines. Each request's budget is anchored to the monotonic clock at
//     arrival; queueing and coalescing delay draw down the same budget that
//     the solver's anytime ladder consumes (OefOptions::deadline). An op
//     whose deadline lapses while queued is answered kDeadlineExpired
//     without touching the registry.
//   * Coalescing. The worker drains every queued op into one batch (plus a
//     configurable wait window for stragglers) and runs one warm resolve for
//     the whole batch — under a burst of updates the solver sees one model
//     edit, not one per request.
//   * Idempotency. Applied mutation request-ids are remembered (the last
//     4096, FIFO) and persisted in the checkpoint; a retried duplicate is
//     answered kOk with the current snapshot instead of being applied twice
//     — across restarts too.
//   * Crash safety. After applying a batch the service writes a versioned
//     checkpoint (registry, dedup ids, snapshot, allocator warm state) and
//     only then acknowledges the batch. A kill -9 at any instant therefore
//     loses no acknowledged update, and the restarted process resumes on the
//     allocator's warm paths (see service/checkpoint.h for the file format).
//     A restored tenant is validated like an add_tenant request; one that
//     fails makes construction throw CheckError instead of being served.
//   * Lock-free reads. query_allocation never queues: it reads the last-good
//     snapshot through an atomic shared_ptr, immune to worker stalls.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <condition_variable>

#include "common/clock.h"
#include "core/oef.h"
#include "service/protocol.h"

namespace oef::service {

/// Deployment knobs of one service. The allocator runs on default OefOptions
/// (its deadline is set per batch to the earliest live request deadline).
struct ServiceOptions {
  core::OefAllocator::Mode mode = core::OefAllocator::Mode::kCooperative;
  /// Cluster capacities per GPU type; fixes the demand-row arity.
  std::vector<double> capacities;
  /// Admission-control bound on queued mutations.
  std::size_t max_queue_depth = 64;
  /// After the first op of a batch, wait this long for stragglers before
  /// resolving. 0 = resolve immediately with whatever is already queued.
  double coalesce_window_seconds = 0.0;
  /// Deadline applied to requests that carry none. 0 = no default.
  double default_deadline_seconds = 0.0;
  /// Checkpoint file; empty disables durability (and warm restore).
  std::string checkpoint_path;
};

/// Service telemetry; snapshot via AllocatorService::stats(), exported by the
/// health endpoint and the bench harness.
struct ServiceStats {
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_shed = 0;
  std::uint64_t deadline_expirations = 0;
  std::uint64_t duplicates_served = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_ops = 0;
  /// Largest single batch and deepest queue observed.
  std::uint64_t max_batch_size = 0;
  std::uint64_t max_queue_depth_seen = 0;
  std::uint64_t resolves = 0;
  std::uint64_t degraded_results = 0;
  std::uint64_t failed_results = 0;
  std::uint64_t checkpoints_written = 0;
  /// Restore outcome at construction (0/1 each).
  std::uint64_t warm_restores = 0;
  std::uint64_t cold_restores = 0;
  /// Cumulative simplex pivots across all resolves, split cold/warm — the
  /// bench's warm-restore-vs-cold-restart evidence.
  std::uint64_t lp_iterations = 0;
  std::uint64_t cold_lp_iterations = 0;
  std::uint64_t warm_lp_iterations = 0;
  std::uint64_t envy_rows_added = 0;
  std::uint64_t snapshot_version = 0;

  /// Flat key/value export for the health endpoint and bench JSON.
  void to_key_values(std::vector<std::string>& keys, std::vector<double>& values) const;
};

class AllocatorService {
 public:
  explicit AllocatorService(ServiceOptions options);
  ~AllocatorService();

  AllocatorService(const AllocatorService&) = delete;
  AllocatorService& operator=(const AllocatorService&) = delete;

  /// Serves one request. Thread-safe; mutations block until the worker has
  /// applied + checkpointed them (or shed them), queries return immediately.
  [[nodiscard]] Response handle(const Request& request);

  /// Last-good allocation snapshot; lock-free (atomic shared_ptr load).
  [[nodiscard]] std::shared_ptr<const WireSnapshot> snapshot() const;

  [[nodiscard]] ServiceStats stats() const;

  /// True when construction restored state from a checkpoint; warm means the
  /// allocator's solver holds the checkpointed warm identity too (the next
  /// resolve starts from it, as the uninterrupted service would have). A
  /// checkpoint that fails to parse, or whose tenants fail validation (name,
  /// demand arity against `capacities`, finite positive demand and weight),
  /// makes the constructor throw CheckError instead.
  [[nodiscard]] bool restored_from_checkpoint() const { return restored_; }
  [[nodiscard]] bool restored_warm() const { return restored_warm_; }

  /// Drains the queue (every queued op is still served) and stops the
  /// worker. Mutations arriving afterwards get kShuttingDown; queries keep
  /// working. Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct Tenant {
    std::uint64_t id = 0;  // stable identity for the envy pool across churn
    std::string name;
    double weight = 1.0;
    std::vector<double> demand;
  };

  struct PendingOp {
    Request request;
    common::Deadline deadline;
    std::promise<Response> promise;
  };

  [[nodiscard]] static bool droppable(MessageType type) {
    return type == MessageType::kUpdateDemand || type == MessageType::kAllocate;
  }

  void worker_loop();
  void process_batch(std::vector<std::unique_ptr<PendingOp>>& batch);
  /// Applies one op to the registry; returns its per-op status.
  [[nodiscard]] StatusCode apply(const Request& request, std::string& message);
  void resolve_and_publish(StatusCode& quality, std::string& message);
  [[nodiscard]] std::string serialize_state() const;
  void restore_state(const std::string& payload);
  [[nodiscard]] Response make_snapshot_response(std::uint64_t request_id,
                                                StatusCode status,
                                                std::string message) const;
  void record_applied(std::uint64_t request_id);

  ServiceOptions options_;
  core::OefAllocator allocator_;

  mutable std::mutex mu_;  // queue + shutdown flag
  std::condition_variable cv_;
  std::deque<std::unique_ptr<PendingOp>> queue_;
  bool stopping_ = false;

  // Worker-thread-only state (no lock needed once the worker owns it).
  std::vector<Tenant> tenants_;
  std::uint64_t next_tenant_id_ = 0;
  std::uint64_t version_ = 0;
  std::deque<std::uint64_t> applied_order_;
  std::unordered_set<std::uint64_t> applied_ids_;

  std::atomic<std::shared_ptr<const WireSnapshot>> snapshot_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;

  bool restored_ = false;
  bool restored_warm_ = false;

  std::thread worker_;
};

}  // namespace oef::service

#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/serial.h"
#include "core/speedup_matrix.h"
#include "service/checkpoint.h"

namespace oef::service {

namespace {

/// Applied request-ids remembered for idempotency (FIFO eviction).
constexpr std::size_t kDedupCapacity = 4096;

/// Why a tenant row cannot be served, or empty when it can: a non-empty
/// name, one demand entry per GPU type, and every demand entry and the
/// weight finite and > 0. add_tenant/update_demand requests and restored
/// checkpoint tenants go through the same check.
[[nodiscard]] std::string tenant_error(const std::string& name,
                                       const std::vector<double>& demand, double weight,
                                       std::size_t num_types) {
  const auto positive = [](double value) { return std::isfinite(value) && value > 0.0; };
  if (name.empty()) return "tenant name must be non-empty";
  if (demand.size() != num_types) return "demand arity does not match GPU type count";
  if (!std::all_of(demand.begin(), demand.end(), positive)) {
    return "demand entries must be finite and positive";
  }
  if (!positive(weight)) return "weight must be finite and positive";
  return {};
}

[[nodiscard]] std::shared_ptr<const WireSnapshot> empty_snapshot() {
  auto snapshot = std::make_shared<WireSnapshot>();
  snapshot->version = 0;
  snapshot->quality = StatusCode::kOk;
  return snapshot;
}

}  // namespace

void ServiceStats::to_key_values(std::vector<std::string>& keys,
                                 std::vector<double>& values) const {
  const auto put = [&](const char* key, std::uint64_t value) {
    keys.emplace_back(key);
    values.push_back(static_cast<double>(value));
  };
  put("requests_accepted", requests_accepted);
  put("requests_shed", requests_shed);
  put("deadline_expirations", deadline_expirations);
  put("duplicates_served", duplicates_served);
  put("batches", batches);
  put("batched_ops", batched_ops);
  put("max_batch_size", max_batch_size);
  put("max_queue_depth_seen", max_queue_depth_seen);
  put("resolves", resolves);
  put("degraded_results", degraded_results);
  put("failed_results", failed_results);
  put("checkpoints_written", checkpoints_written);
  put("warm_restores", warm_restores);
  put("cold_restores", cold_restores);
  put("lp_iterations", lp_iterations);
  put("cold_lp_iterations", cold_lp_iterations);
  put("warm_lp_iterations", warm_lp_iterations);
  put("envy_rows_added", envy_rows_added);
  put("snapshot_version", snapshot_version);
}

AllocatorService::AllocatorService(ServiceOptions options)
    : options_(std::move(options)), allocator_(options_.mode) {
  OEF_REQUIRE_CODE(!options_.capacities.empty(), common::ErrorCode::kInvalidArgument,
                   "service requires at least one GPU type capacity");
  for (const double capacity : options_.capacities) {
    OEF_REQUIRE_CODE(capacity > 0.0, common::ErrorCode::kInvalidArgument,
                     "capacities must be positive");
  }
  snapshot_.store(empty_snapshot());
  if (!options_.checkpoint_path.empty()) {
    const auto payload = load_checkpoint(options_.checkpoint_path);
    if (payload.has_value()) {
      restore_state(*payload);
      restored_ = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (restored_warm_) {
        ++stats_.warm_restores;
      } else {
        ++stats_.cold_restores;
      }
    }
  }
  worker_ = std::thread([this] { worker_loop(); });
}

AllocatorService::~AllocatorService() { shutdown(); }

void AllocatorService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::shared_ptr<const WireSnapshot> AllocatorService::snapshot() const {
  return snapshot_.load();
}

ServiceStats AllocatorService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServiceStats out = stats_;
  out.snapshot_version = snapshot_.load()->version;
  return out;
}

Response AllocatorService::make_snapshot_response(std::uint64_t request_id,
                                                  StatusCode status,
                                                  std::string message) const {
  Response response;
  response.request_id = request_id;
  response.status = status;
  response.message = std::move(message);
  response.has_snapshot = true;
  response.snapshot = *snapshot_.load();
  return response;
}

Response AllocatorService::handle(const Request& request) {
  switch (request.type) {
    case MessageType::kQueryAllocation: {
      const auto snapshot = snapshot_.load();
      Response response = make_snapshot_response(request.request_id, snapshot->quality, {});
      return response;
    }
    case MessageType::kHealth: {
      Response response;
      response.request_id = request.request_id;
      response.status = StatusCode::kOk;
      stats().to_key_values(response.stat_keys, response.stat_values);
      {
        std::lock_guard<std::mutex> lock(mu_);
        response.stat_keys.emplace_back("queue_depth");
        response.stat_values.push_back(static_cast<double>(queue_.size()));
      }
      return response;
    }
    case MessageType::kShutdown: {
      shutdown();
      Response response;
      response.request_id = request.request_id;
      response.status = StatusCode::kOk;
      response.message = "draining";
      return response;
    }
    case MessageType::kAllocate:
    case MessageType::kAddTenant:
    case MessageType::kRemoveTenant:
    case MessageType::kUpdateDemand: break;
  }

  // Mutation path. Validate before spending a queue slot, so a malformed
  // request can never poison a batch mid-apply.
  std::string invalid;
  if (request.type == MessageType::kAddTenant || request.type == MessageType::kUpdateDemand) {
    invalid = tenant_error(request.tenant, request.demand, request.weight,
                           options_.capacities.size());
  } else if (request.type == MessageType::kRemoveTenant && request.tenant.empty()) {
    invalid = "tenant name must be non-empty";
  }
  if (!invalid.empty()) {
    return make_snapshot_response(request.request_id, StatusCode::kInvalidArgument,
                                  std::move(invalid));
  }

  auto op = std::make_unique<PendingOp>();
  op->request = request;
  double budget = request.deadline_seconds > 0.0 ? request.deadline_seconds
                                                 : options_.default_deadline_seconds;
  op->deadline = budget > 0.0 ? common::Deadline::after(budget) : common::Deadline::none();
  std::future<Response> future = op->promise.get_future();

  std::unique_ptr<PendingOp> shed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      return make_snapshot_response(request.request_id, StatusCode::kShuttingDown,
                                    "service is draining");
    }
    if (request.request_id != 0 && applied_ids_.count(request.request_id) != 0) {
      lock.unlock();
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.duplicates_served;
      return make_snapshot_response(request.request_id, StatusCode::kOk,
                                    "duplicate request id; already applied");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      // Overload: shed the oldest droppable op (or the incoming one when
      // every queued op is non-droppable and so is protected).
      auto victim = std::find_if(queue_.begin(), queue_.end(),
                                 [](const std::unique_ptr<PendingOp>& queued) {
                                   return droppable(queued->request.type);
                                 });
      if (victim != queue_.end()) {
        shed = std::move(*victim);
        queue_.erase(victim);
      } else if (droppable(request.type)) {
        lock.unlock();
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.requests_shed;
        return make_snapshot_response(request.request_id, StatusCode::kOverloaded,
                                      "queue full; request shed");
      }
      // A non-droppable op is admitted past the bound: shedding a tenant
      // departure would leak the tenant forever.
    }
    queue_.push_back(std::move(op));
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.requests_accepted;
    stats_.max_queue_depth_seen = std::max<std::uint64_t>(stats_.max_queue_depth_seen,
                                                          queue_.size());
  }
  cv_.notify_all();
  if (shed != nullptr) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.requests_shed;
    }
    shed->promise.set_value(make_snapshot_response(shed->request.request_id,
                                                   StatusCode::kOverloaded,
                                                   "shed by a newer request under overload"));
  }
  return future.get();
}

void AllocatorService::worker_loop() {
  for (;;) {
    std::vector<std::unique_ptr<PendingOp>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalescing: hold the first op for the window so close-together
      // updates land in the same batch (and the same single warm resolve).
      // Stragglers stay *queued* during the window — admission control keeps
      // seeing the true depth — and are drained in one go at the end.
      if (options_.coalesce_window_seconds > 0.0 && !stopping_) {
        const double window_end =
            common::monotonic_seconds() + options_.coalesce_window_seconds;
        for (;;) {
          const double remaining = window_end - common::monotonic_seconds();
          if (remaining <= 0.0 || stopping_) break;
          cv_.wait_for(lock, std::chrono::duration<double>(remaining));
        }
      }
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    process_batch(batch);
  }
}

StatusCode AllocatorService::apply(const Request& request, std::string& message) {
  const auto find = [&](const std::string& name) {
    return std::find_if(tenants_.begin(), tenants_.end(),
                        [&](const Tenant& tenant) { return tenant.name == name; });
  };
  switch (request.type) {
    case MessageType::kAllocate: return StatusCode::kOk;
    case MessageType::kAddTenant: {
      if (find(request.tenant) != tenants_.end()) {
        message = "tenant already registered: " + request.tenant;
        return StatusCode::kAlreadyExists;
      }
      Tenant tenant;
      tenant.id = next_tenant_id_++;
      tenant.name = request.tenant;
      tenant.weight = request.weight;
      tenant.demand = request.demand;
      tenants_.push_back(std::move(tenant));
      return StatusCode::kOk;
    }
    case MessageType::kRemoveTenant: {
      const auto it = find(request.tenant);
      if (it == tenants_.end()) {
        message = "no such tenant: " + request.tenant;
        return StatusCode::kNotFound;
      }
      tenants_.erase(it);
      return StatusCode::kOk;
    }
    case MessageType::kUpdateDemand: {
      const auto it = find(request.tenant);
      if (it == tenants_.end()) {
        message = "no such tenant: " + request.tenant;
        return StatusCode::kNotFound;
      }
      it->demand = request.demand;
      it->weight = request.weight;
      return StatusCode::kOk;
    }
    default: break;
  }
  message = "not a mutation";
  return StatusCode::kInternalError;
}

void AllocatorService::record_applied(std::uint64_t request_id) {
  if (request_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!applied_ids_.insert(request_id).second) return;
  applied_order_.push_back(request_id);
  while (applied_order_.size() > kDedupCapacity) {
    applied_ids_.erase(applied_order_.front());
    applied_order_.pop_front();
  }
}

void AllocatorService::resolve_and_publish(StatusCode& quality, std::string& message) {
  auto next = std::make_shared<WireSnapshot>();
  next->version = version_ + 1;
  for (const Tenant& tenant : tenants_) next->tenants.push_back(tenant.name);

  if (tenants_.empty()) {
    next->quality = StatusCode::kOk;
    version_ = next->version;
    snapshot_.store(std::move(next));
    quality = StatusCode::kOk;
    return;
  }

  std::vector<std::vector<double>> rows;
  std::vector<double> weights;
  std::vector<std::size_t> user_ids;
  rows.reserve(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    rows.push_back(tenant.demand);
    weights.push_back(tenant.weight);
    user_ids.push_back(static_cast<std::size_t>(tenant.id));
  }

  core::AllocationResult result;
  try {
    const core::SpeedupMatrix speedups((std::move(rows)));
    result = allocator_.allocate_weighted(speedups, weights, options_.capacities, user_ids);
  } catch (const common::CheckError& error) {
    quality = status_from_error(error);
    message = error.what();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.failed_results;
    }
    common::log_warn(std::string("service resolve threw: ") + error.what());
    return;  // keep the last-good snapshot
  }
  // Finite demands can still overflow the efficiency sum (an entry near
  // DBL_MAX); a non-finite total is never published.
  if (result.served() && !std::isfinite(result.total_efficiency)) {
    result.outcome = core::AllocationStatus::kFailed;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.resolves;
    stats_.lp_iterations += result.lp_iterations;
    stats_.cold_lp_iterations += result.cold_lp_iterations;
    stats_.warm_lp_iterations += result.warm_lp_iterations;
    stats_.envy_rows_added += result.envy_rows_added;
    if (result.outcome == core::AllocationStatus::kDegraded) ++stats_.degraded_results;
    if (result.outcome == core::AllocationStatus::kFailed) ++stats_.failed_results;
    if (result.deadline_expired) ++stats_.deadline_expirations;
  }

  quality = status_from_outcome(result.outcome);
  if (!result.served()) {
    message = std::string("solve failed: ") + core::to_string(result.outcome);
    return;  // keep the last-good snapshot
  }

  next->quality = quality;
  next->total_efficiency = result.total_efficiency;
  next->shares.reserve(tenants_.size());
  for (std::size_t row = 0; row < tenants_.size(); ++row) {
    next->shares.push_back(result.allocation.row(row));
  }
  version_ = next->version;
  snapshot_.store(std::move(next));
}

void AllocatorService::process_batch(std::vector<std::unique_ptr<PendingOp>>& batch) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    stats_.batched_ops += batch.size();
    stats_.max_batch_size = std::max<std::uint64_t>(stats_.max_batch_size, batch.size());
  }

  struct OpOutcome {
    StatusCode status = StatusCode::kOk;
    std::string message;
    bool applied = false;
  };
  std::vector<OpOutcome> outcomes(batch.size());
  bool any_applied = false;
  common::Deadline batch_deadline = common::Deadline::none();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingOp& op = *batch[i];
    if (op.deadline.expired()) {
      outcomes[i].status = StatusCode::kDeadlineExpired;
      outcomes[i].message = "deadline expired while queued";
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.deadline_expirations;
      continue;
    }
    outcomes[i].status = apply(op.request, outcomes[i].message);
    if (outcomes[i].status == StatusCode::kOk) {
      outcomes[i].applied = true;
      any_applied = true;
      batch_deadline = common::Deadline::earlier(batch_deadline, op.deadline);
      record_applied(op.request.request_id);
    }
  }

  StatusCode quality = StatusCode::kOk;
  std::string resolve_message;
  if (any_applied) {
    // One warm resolve for the whole batch, under the earliest live deadline.
    allocator_.set_deadline(batch_deadline);
    resolve_and_publish(quality, resolve_message);
  }

  bool checkpoint_ok = true;
  std::string checkpoint_message;
  if (any_applied && !options_.checkpoint_path.empty()) {
    try {
      write_checkpoint(options_.checkpoint_path, serialize_state());
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.checkpoints_written;
    } catch (const common::CheckError& error) {
      checkpoint_ok = false;
      checkpoint_message = error.what();
      common::log_warn(std::string("service checkpoint write failed: ") + error.what());
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    PendingOp& op = *batch[i];
    StatusCode status = outcomes[i].status;
    std::string message = std::move(outcomes[i].message);
    if (outcomes[i].applied) {
      if (!checkpoint_ok) {
        // The mutation is live in memory but not durable; refuse to
        // acknowledge success so a crash cannot lose an acked update.
        status = StatusCode::kInternalError;
        message = "applied but checkpoint failed: " + checkpoint_message;
      } else if (quality != StatusCode::kOk) {
        status = quality;
        if (message.empty()) message = resolve_message;
      }
    }
    op.promise.set_value(make_snapshot_response(op.request.request_id, status,
                                                std::move(message)));
  }
}

std::string AllocatorService::serialize_state() const {
  common::SerialWriter out;
  out.u64(version_);
  out.u64(next_tenant_id_);
  out.u64(tenants_.size());
  for (const Tenant& tenant : tenants_) {
    out.u64(tenant.id);
    out.str(tenant.name);
    out.f64(tenant.weight);
    out.f64_vec(tenant.demand);
  }
  std::vector<std::uint64_t> applied(applied_order_.begin(), applied_order_.end());
  out.u64_vec(applied);
  write_wire_snapshot(out, *snapshot_.load());
  allocator_.save_warm_state(out);
  return out.take();
}

void AllocatorService::restore_state(const std::string& payload) {
  common::SerialReader in(payload);
  version_ = in.u64();
  next_tenant_id_ = in.u64();
  const std::uint64_t num_tenants = in.count();
  tenants_.clear();
  std::vector<std::size_t> tenant_ids;
  for (std::uint64_t i = 0; i < num_tenants; ++i) {
    Tenant tenant;
    tenant.id = in.u64();
    // Ids are the allocator's stable user ids: distinct (checked below), and
    // below the next one add_tenant hands out.
    OEF_REQUIRE_CODE(tenant.id < next_tenant_id_, common::ErrorCode::kCorruptData,
                     "checkpoint tenant id not below the next tenant id");
    tenant_ids.push_back(tenant.id);
    tenant.name = in.str();
    tenant.weight = in.f64();
    tenant.demand = in.f64_vec();
    const std::string invalid =
        tenant_error(tenant.name, tenant.demand, tenant.weight, options_.capacities.size());
    OEF_REQUIRE_CODE(invalid.empty(), common::ErrorCode::kInvalidArgument,
                     ("checkpoint tenant '" + tenant.name + "': " + invalid).c_str());
    tenants_.push_back(std::move(tenant));
  }
  OEF_REQUIRE_CODE(common::all_distinct(std::move(tenant_ids)), common::ErrorCode::kCorruptData,
                   "checkpoint tenant id repeated");
  applied_order_.clear();
  applied_ids_.clear();
  for (const std::uint64_t id : in.u64_vec()) {
    if (applied_ids_.insert(id).second) applied_order_.push_back(id);
  }
  snapshot_.store(std::make_shared<const WireSnapshot>(read_wire_snapshot(in)));
  restored_warm_ = allocator_.load_warm_state(in);
}

}  // namespace oef::service

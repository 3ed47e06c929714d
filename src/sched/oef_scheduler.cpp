#include "sched/oef_scheduler.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/logging.h"

namespace oef::sched {

core::Allocation OefScheduler::allocate(const core::SpeedupMatrix& speedups,
                                        const std::vector<double>& capacities,
                                        const std::vector<double>& weights) const {
  return allocate(speedups, capacities, weights, {});
}

core::Allocation OefScheduler::allocate(const core::SpeedupMatrix& speedups,
                                        const std::vector<double>& capacities,
                                        const std::vector<double>& weights,
                                        const std::vector<std::size_t>& user_ids) const {
  const std::size_t n = speedups.num_users();
  const std::size_t k = speedups.num_types();
  const std::vector<double> multiplicities = effective_weights(n, weights);

  core::AllocationResult result;
  try {
    result = allocator_.allocate_weighted(speedups, multiplicities, capacities, user_ids);
  } catch (const common::CheckError& error) {
    // The allocator rejected its inputs at the module boundary. A per-round
    // scheduler must keep serving, so this degrades to the fallback below
    // instead of unwinding the whole simulation — unless the capacity vector
    // itself is malformed, in which case there is nothing sane to serve
    // against and the error propagates to the caller.
    if (capacities.size() != k) throw;
    common::log_warn(std::string("OEF allocator rejected the round's inputs: ") +
                     error.what());
    result.outcome = core::AllocationStatus::kFailed;
  }

  if (result.deadline_expired) ++deadline_expirations_;

  if (result.served()) {
    if (!result.ok()) {
      ++degraded_rounds_;
      common::log_warn("OEF allocation degraded (" +
                       std::string(core::to_string(result.outcome)) +
                       "): serving the non-converged relaxation optimum");
    }
    last_served_ = result.allocation;
    has_last_served_ = true;
    return result.allocation;
  }

  // Terminal rung: the allocator produced nothing usable. Serve the last
  // feasible allocation rescaled to today's (possibly shrunken) capacities.
  ++fallback_rounds_;
  common::log_warn("OEF allocation failed outright; serving the last-feasible fallback");
  core::Allocation fallback = fallback_allocation(n, k, capacities, multiplicities);
  last_served_ = fallback;
  has_last_served_ = true;
  return fallback;
}

core::Allocation OefScheduler::fallback_allocation(
    std::size_t num_users, std::size_t num_types, const std::vector<double>& capacities,
    const std::vector<double>& weights) const {
  if (has_last_served_ && last_served_.num_users() == num_users &&
      last_served_.num_types() == num_types) {
    // Rescale each type column so it fits the surviving capacity: churn and
    // failures only ever shrink what the last feasible allocation may hand
    // out, never entitle anyone to more.
    core::Allocation scaled = last_served_;
    const std::vector<double> used = scaled.used_per_type();
    for (std::size_t j = 0; j < num_types; ++j) {
      const double scale = used[j] > capacities[j] && used[j] > 0.0
                               ? capacities[j] / used[j]
                               : 1.0;
      if (scale >= 1.0) continue;
      for (std::size_t l = 0; l < num_users; ++l) scaled.at(l, j) *= scale;
    }
    return scaled;
  }
  // No reusable previous round (first round, or the user set changed):
  // weighted equal shares of every type, trivially capacity-feasible.
  const double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
  core::Allocation equal(num_users, num_types);
  for (std::size_t l = 0; l < num_users; ++l) {
    for (std::size_t j = 0; j < num_types; ++j) {
      equal.at(l, j) = capacities[j] * weights[l] / total_weight;
    }
  }
  return equal;
}

}  // namespace oef::sched

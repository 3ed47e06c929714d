// Scheduler-interface adapters for the OEF allocators, so the simulator and
// benches can treat OEF and the baselines uniformly.
#pragma once

#include "core/oef.h"
#include "sched/scheduler.h"

namespace oef::sched {

/// OEF behind the Scheduler interface, with the scheduler-level end of the
/// degradation ladder: a degraded (non-converged) allocator result is served
/// as-is and counted; a failed result — every solver rung exhausted, or the
/// allocator rejecting its inputs via CheckError — is answered with the last
/// feasible allocation rescaled to the surviving capacities (equal shares
/// when no previous round exists). The scheduler therefore always returns a
/// capacity-feasible allocation; telemetry says how honest it is.
class OefScheduler : public Scheduler {
 public:
  explicit OefScheduler(core::OefAllocator::Mode mode, core::OefOptions options = {})
      : allocator_(mode, options), mode_(mode) {}

  [[nodiscard]] std::string name() const override {
    return mode_ == core::OefAllocator::Mode::kNonCooperative ? "OEF-noncoop" : "OEF-coop";
  }

  [[nodiscard]] core::Allocation allocate(const core::SpeedupMatrix& speedups,
                                          const std::vector<double>& capacities,
                                          const std::vector<double>& weights) const override;

  [[nodiscard]] core::Allocation allocate(
      const core::SpeedupMatrix& speedups, const std::vector<double>& capacities,
      const std::vector<double>& weights,
      const std::vector<std::size_t>& user_ids) const override;

  [[nodiscard]] SchedulerTelemetry telemetry() const override {
    SchedulerTelemetry t = to_telemetry(allocator_.solver_stats());
    t.oracle_seconds = allocator_.oracle_seconds();
    t.degraded_rounds = degraded_rounds_;
    t.fallback_rounds = fallback_rounds_;
    t.deadline_expirations = deadline_expirations_;
    return t;
  }

 private:
  /// Last-feasible fallback: the previous served allocation rescaled
  /// per-type to fit `capacities`, or equal weighted shares when no usable
  /// previous round exists.
  [[nodiscard]] core::Allocation fallback_allocation(
      std::size_t num_users, std::size_t num_types,
      const std::vector<double>& capacities, const std::vector<double>& weights) const;

  core::OefAllocator allocator_;
  core::OefAllocator::Mode mode_;
  /// Degradation state; mutable for the same reason the allocator is — the
  /// interface is logically const but warm/robustness state persists.
  mutable core::Allocation last_served_;
  mutable bool has_last_served_ = false;
  mutable std::size_t degraded_rounds_ = 0;
  mutable std::size_t fallback_rounds_ = 0;
  mutable std::size_t deadline_expirations_ = 0;
};

}  // namespace oef::sched

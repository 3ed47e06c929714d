// Gavel baseline (Narayanan et al., OSDI'20): heterogeneity-aware max-min.
//
// Gavel maximises the minimum, over users, of the ratio between a user's
// attained throughput and their isolated fair share (a weight-proportional
// slice of every GPU type):  max t  s.t.  w_l·x_l >= t · (w_l · m_l_share)
// and capacity — the single LP the paper analyses in §2.4.
#pragma once

#include "sched/scheduler.h"

namespace oef::sched {

class GavelScheduler : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Gavel"; }
  [[nodiscard]] core::Allocation allocate(const core::SpeedupMatrix& speedups,
                                          const std::vector<double>& capacities,
                                          const std::vector<double>& weights) const override;

  [[nodiscard]] SchedulerTelemetry telemetry() const override {
    return to_telemetry(solver_.stats());
  }

 private:
  /// Persistent solver: the max-min LP keeps its shape across simulator
  /// rounds, so each solve warm-starts from the previous optimal basis.
  mutable solver::LpSolver solver_;
};

}  // namespace oef::sched

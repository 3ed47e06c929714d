// Deviation-tracked rounding (§4.3).
//
// The fair-share evaluator produces fractional device shares; whole GPUs must
// be handed out each round. For every (user, type) pair the rounder tracks
// the cumulative deviation dev(t) between ideal and granted shares and rounds
// ideal(t) + dev(t), so each user's long-run average allocation converges to
// the ideal share. Users whose total grant would be below the smallest worker
// size of their jobs are floored to zero (the deviation keeps accumulating,
// guaranteeing they are eventually served — the paper's starvation-freedom
// argument), and the devices they free go to other users (work-conserving).
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.h"

namespace oef::placement {

class DeviationRounder {
 public:
  DeviationRounder(std::size_t num_users, std::size_t num_types);

  /// One scheduling round: converts fractional `ideal` shares into integer
  /// grants. `capacities` bounds column sums; `min_demand[l]` is the smallest
  /// worker size among user l's runnable jobs (0 = no floor).
  [[nodiscard]] std::vector<std::vector<int>> round(
      const core::Allocation& ideal, const std::vector<double>& capacities,
      const std::vector<std::size_t>& min_demand);

  /// Cumulative deviation of one user/type pair (for tests & metrics).
  [[nodiscard]] double deviation(std::size_t user, std::size_t type) const;

  /// Grows the tracker when users join; new users start at zero deviation.
  void resize(std::size_t num_users);

 private:
  std::size_t num_types_;
  std::vector<std::vector<double>> dev_;
};

}  // namespace oef::placement

// Allocation matrix X (§2.3): x[l][j] = (possibly fractional) number of
// type-j devices granted to user l, plus the efficiency arithmetic every
// scheduler and property checker shares.
#pragma once

#include <cstddef>
#include <vector>

#include "core/speedup_matrix.h"

namespace oef::core {

class Allocation {
 public:
  Allocation() = default;
  Allocation(std::size_t num_users, std::size_t num_types);
  explicit Allocation(std::vector<std::vector<double>> shares);

  [[nodiscard]] std::size_t num_users() const { return shares_.size(); }
  [[nodiscard]] std::size_t num_types() const {
    return shares_.empty() ? 0 : shares_.front().size();
  }

  [[nodiscard]] double& at(std::size_t user, std::size_t type);
  [[nodiscard]] double at(std::size_t user, std::size_t type) const;
  [[nodiscard]] const std::vector<double>& row(std::size_t user) const;
  void set_row(std::size_t user, std::vector<double> row);

  /// Normalised training throughput of one user: w_l · x_l (§2.3.2).
  [[nodiscard]] double efficiency(std::size_t user, const SpeedupMatrix& speedups) const;

  /// Per-user efficiency vector E.
  [[nodiscard]] std::vector<double> efficiencies(const SpeedupMatrix& speedups) const;

  /// Overall resource efficiency Σ_l w_l · x_l.
  [[nodiscard]] double total_efficiency(const SpeedupMatrix& speedups) const;

  /// Devices of each type handed out (column sums).
  [[nodiscard]] std::vector<double> used_per_type() const;

  /// True when column sums do not exceed capacities (within tol).
  [[nodiscard]] bool respects_capacity(const std::vector<double>& capacities,
                                       double tol = 1e-7) const;

  /// True when every user's non-zero types form one contiguous range
  /// (Theorem 5.2: only adjacent GPU types are assigned).
  [[nodiscard]] bool uses_adjacent_types_only(double tol = 1e-7) const;

 private:
  std::vector<std::vector<double>> shares_;
};

}  // namespace oef::core

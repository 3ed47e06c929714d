// Speedup matrix W (§2.3): n users × k GPU types, w[l][j] = training
// throughput of user l's jobs on type j normalised by the slowest type
// (column 0), so w[l][0] == 1 for every user.
#pragma once

#include <cstddef>
#include <vector>

namespace oef::core {

class SpeedupMatrix {
 public:
  SpeedupMatrix() = default;

  /// Builds from raw per-type throughputs; rows are users, columns GPU types
  /// ordered slowest → fastest. Rows must be non-empty, equal length, with
  /// strictly positive column-0 entries.
  explicit SpeedupMatrix(std::vector<std::vector<double>> raw_throughputs);

  [[nodiscard]] std::size_t num_users() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_types() const {
    return rows_.empty() ? 0 : rows_.front().size();
  }

  [[nodiscard]] double at(std::size_t user, std::size_t type) const;
  [[nodiscard]] const std::vector<double>& row(std::size_t user) const;

  /// Replaces one user's row (used to model misreporting). The row is
  /// re-normalised to its first entry.
  void set_row(std::size_t user, std::vector<double> row);

  /// w_l · x for an arbitrary per-type allocation vector x.
  [[nodiscard]] double dot(std::size_t user, const std::vector<double>& allocation) const;

 private:
  static std::vector<double> normalize_row(std::vector<double> row);
  std::vector<std::vector<double>> rows_;
};

}  // namespace oef::core

#include "core/speedup_matrix.h"

#include <cmath>

#include "common/check.h"

namespace oef::core {

std::vector<double> SpeedupMatrix::normalize_row(std::vector<double> row) {
  OEF_CHECK_MSG(!row.empty(), "speedup row must be non-empty");
  OEF_CHECK_MSG(row.front() > 0.0, "slowest-type throughput must be positive");
  const double base = row.front();
  for (double& w : row) {
    OEF_CHECK_MSG(w >= 0.0, "throughput must be non-negative");
    w /= base;
  }
  return row;
}

SpeedupMatrix::SpeedupMatrix(std::vector<std::vector<double>> raw_throughputs) {
  OEF_CHECK_MSG(!raw_throughputs.empty(), "speedup matrix must have at least one user");
  const std::size_t k = raw_throughputs.front().size();
  for (auto& row : raw_throughputs) {
    OEF_CHECK_MSG(row.size() == k, "ragged speedup matrix");
    rows_.push_back(normalize_row(std::move(row)));
  }
}

double SpeedupMatrix::at(std::size_t user, std::size_t type) const {
  OEF_CHECK(user < rows_.size());
  OEF_CHECK(type < rows_[user].size());
  return rows_[user][type];
}

const std::vector<double>& SpeedupMatrix::row(std::size_t user) const {
  OEF_CHECK(user < rows_.size());
  return rows_[user];
}

void SpeedupMatrix::set_row(std::size_t user, std::vector<double> row) {
  OEF_CHECK(user < rows_.size());
  OEF_CHECK(row.size() == num_types());
  rows_[user] = normalize_row(std::move(row));
}

double SpeedupMatrix::dot(std::size_t user, const std::vector<double>& allocation) const {
  OEF_CHECK(user < rows_.size());
  OEF_CHECK(allocation.size() == rows_[user].size());
  double acc = 0.0;
  for (std::size_t j = 0; j < allocation.size(); ++j) acc += rows_[user][j] * allocation[j];
  return acc;
}

}  // namespace oef::core

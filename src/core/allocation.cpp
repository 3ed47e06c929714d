#include "core/allocation.h"

#include "common/check.h"

namespace oef::core {

Allocation::Allocation(std::size_t num_users, std::size_t num_types)
    : shares_(num_users, std::vector<double>(num_types, 0.0)) {}

Allocation::Allocation(std::vector<std::vector<double>> shares) : shares_(std::move(shares)) {
  if (shares_.empty()) return;
  const std::size_t k = shares_.front().size();
  for (const auto& row : shares_) OEF_CHECK_MSG(row.size() == k, "ragged allocation");
}

double& Allocation::at(std::size_t user, std::size_t type) {
  OEF_CHECK(user < shares_.size());
  OEF_CHECK(type < shares_[user].size());
  return shares_[user][type];
}

double Allocation::at(std::size_t user, std::size_t type) const {
  OEF_CHECK(user < shares_.size());
  OEF_CHECK(type < shares_[user].size());
  return shares_[user][type];
}

const std::vector<double>& Allocation::row(std::size_t user) const {
  OEF_CHECK(user < shares_.size());
  return shares_[user];
}

void Allocation::set_row(std::size_t user, std::vector<double> row) {
  OEF_CHECK(user < shares_.size());
  OEF_CHECK(row.size() == num_types());
  shares_[user] = std::move(row);
}

double Allocation::efficiency(std::size_t user, const SpeedupMatrix& speedups) const {
  return speedups.dot(user, row(user));
}

std::vector<double> Allocation::efficiencies(const SpeedupMatrix& speedups) const {
  std::vector<double> result;
  result.reserve(num_users());
  for (std::size_t l = 0; l < num_users(); ++l) result.push_back(efficiency(l, speedups));
  return result;
}

double Allocation::total_efficiency(const SpeedupMatrix& speedups) const {
  double total = 0.0;
  for (std::size_t l = 0; l < num_users(); ++l) total += efficiency(l, speedups);
  return total;
}

std::vector<double> Allocation::used_per_type() const {
  std::vector<double> used(num_types(), 0.0);
  for (const auto& row : shares_) {
    for (std::size_t j = 0; j < row.size(); ++j) used[j] += row[j];
  }
  return used;
}

bool Allocation::respects_capacity(const std::vector<double>& capacities, double tol) const {
  OEF_CHECK(capacities.size() == num_types());
  const std::vector<double> used = used_per_type();
  for (std::size_t j = 0; j < capacities.size(); ++j) {
    if (used[j] > capacities[j] + tol) return false;
  }
  return true;
}

bool Allocation::uses_adjacent_types_only(double tol) const {
  for (const auto& row : shares_) {
    std::ptrdiff_t first = -1;
    std::ptrdiff_t last = -1;
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] > tol) {
        if (first < 0) first = static_cast<std::ptrdiff_t>(j);
        last = static_cast<std::ptrdiff_t>(j);
      }
    }
    for (std::ptrdiff_t j = first; j >= 0 && j <= last; ++j) {
      if (row[static_cast<std::size_t>(j)] <= tol) return false;
    }
  }
  return true;
}

}  // namespace oef::core

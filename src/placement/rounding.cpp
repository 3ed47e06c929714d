#include "placement/rounding.h"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace oef::placement {

DeviationRounder::DeviationRounder(std::size_t num_users, std::size_t num_types)
    : num_types_(num_types), dev_(num_users, std::vector<double>(num_types, 0.0)) {}

double DeviationRounder::deviation(std::size_t user, std::size_t type) const {
  OEF_CHECK(user < dev_.size());
  OEF_CHECK(type < num_types_);
  return dev_[user][type];
}

void DeviationRounder::resize(std::size_t num_users) {
  dev_.resize(num_users, std::vector<double>(num_types_, 0.0));
}

std::vector<std::vector<int>> DeviationRounder::round(
    const core::Allocation& ideal, const std::vector<double>& capacities,
    const std::vector<std::size_t>& min_demand) {
  const std::size_t n = ideal.num_users();
  const std::size_t k = ideal.num_types();
  OEF_CHECK(k == num_types_);
  OEF_CHECK(capacities.size() == k);
  OEF_CHECK(min_demand.size() == n);
  if (dev_.size() < n) resize(n);

  std::vector<std::vector<int>> real(n, std::vector<int>(k, 0));

  // Per type: largest-remainder rounding of target = ideal + dev, keeping the
  // column sum at min(capacity, round(sum of targets)).
  for (std::size_t j = 0; j < k; ++j) {
    double target_sum = 0.0;
    std::vector<double> target(n);
    for (std::size_t l = 0; l < n; ++l) {
      target[l] = std::max(0.0, ideal.at(l, j) + dev_[l][j]);
      target_sum += target[l];
    }
    const int column_total =
        std::min(static_cast<int>(std::llround(capacities[j])),
                 static_cast<int>(std::llround(target_sum)));

    int granted = 0;
    std::vector<double> fraction(n);
    for (std::size_t l = 0; l < n; ++l) {
      real[l][j] = static_cast<int>(std::floor(target[l]));
      fraction[l] = target[l] - real[l][j];
      granted += real[l][j];
    }
    // Hand out the remaining units by largest fractional part; withdraw
    // over-grants (possible when capacity binds) by smallest fraction.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fraction[a] > fraction[b]; });
    for (std::size_t idx = 0; granted < column_total && idx < n; ++idx) {
      ++real[order[idx]][j];
      ++granted;
    }
    // Withdraw over-grants (possible when accumulated deviations inflate
    // several floors past a binding capacity), smallest fraction first,
    // looping until the column fits.
    while (granted > column_total) {
      bool any = false;
      for (std::size_t idx = n; granted > column_total && idx-- > 0;) {
        if (real[order[idx]][j] > 0) {
          --real[order[idx]][j];
          --granted;
          any = true;
        }
      }
      if (!any) break;
    }
  }

  // Min-demand floor (§4.3): users granted fewer devices than their smallest
  // job cannot run anything; zero them and redistribute their devices.
  std::vector<std::size_t> freed(k, 0);
  std::vector<bool> floored(n, false);
  for (std::size_t l = 0; l < n; ++l) {
    const int total =
        std::accumulate(real[l].begin(), real[l].end(), 0);
    if (min_demand[l] > 0 && total > 0 &&
        static_cast<std::size_t>(total) < min_demand[l]) {
      for (std::size_t j = 0; j < k; ++j) {
        freed[j] += static_cast<std::size_t>(real[l][j]);
        real[l][j] = 0;
      }
      floored[l] = true;
    }
  }
  // Freed devices go to unfloored users with the largest accumulated deficit
  // on that type.
  for (std::size_t j = 0; j < k; ++j) {
    while (freed[j] > 0) {
      std::size_t best = SIZE_MAX;
      double best_deficit = -1e300;
      for (std::size_t l = 0; l < n; ++l) {
        if (floored[l]) continue;
        const double deficit = ideal.at(l, j) + dev_[l][j] - real[l][j];
        if (real[l][j] > 0 && deficit > best_deficit) {
          best_deficit = deficit;
          best = l;
        }
      }
      if (best == SIZE_MAX) break;  // nobody can absorb more
      ++real[best][j];
      --freed[j];
    }
  }

  // Deviation update: dev(t+1) = dev(t) + ideal(t) - real(t).
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t j = 0; j < k; ++j) {
      dev_[l][j] += ideal.at(l, j) - real[l][j];
    }
  }
  return real;
}

}  // namespace oef::placement

#include "common/stats.h"

#include <algorithm>

#include "common/check.h"

namespace oef::common {

double percentile(std::vector<double> values, double p) {
  OEF_CHECK(!values.empty());
  OEF_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace oef::common

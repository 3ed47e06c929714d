// Descriptive statistics for the benchmark and example harnesses.
#pragma once

#include <vector>

namespace oef::common {

/// Linearly interpolated percentile, p in [0, 100]. Requires non-empty input.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace oef::common

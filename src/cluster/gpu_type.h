// GPU type identifiers. Types are globally ordered slowest → fastest, matching
// the paper's §2.3 convention (the slowest type is index 0 and every user's
// speedup is normalised to it).
#pragma once

#include <cstddef>

namespace oef::cluster {

/// Index into the cluster's ordered list of GPU types (0 = slowest).
using GpuTypeId = std::size_t;

}  // namespace oef::cluster

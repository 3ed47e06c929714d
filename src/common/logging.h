// Stderr warnings. Library code reports what an operator should see (a
// degraded or failed allocation, a resolve that threw, a checkpoint write
// that failed) through this, so bench stdout stays clean (tables only).
// Routine events (lazy rounds, restores, dropped connections) are not logged.
#pragma once

#include <string>

namespace oef::common {

/// Emits `[WARN] message` on stderr.
void log_warn(const std::string& message);

}  // namespace oef::common

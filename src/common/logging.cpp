#include "common/logging.h"

#include <cstdio>

namespace oef::common {

void log_warn(const std::string& message) { std::fprintf(stderr, "[WARN] %s\n", message.c_str()); }

}  // namespace oef::common

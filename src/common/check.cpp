#include "common/check.h"

#include <algorithm>

namespace oef::common {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kPreconditionFailed:
      return "precondition_failed";
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kDimensionMismatch:
      return "dimension_mismatch";
    case ErrorCode::kBadState:
      return "bad_state";
    case ErrorCode::kCorruptData:
      return "corrupt_data";
  }
  return "unknown";
}

bool all_distinct(std::vector<std::size_t> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

}  // namespace oef::common

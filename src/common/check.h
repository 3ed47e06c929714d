// Checked assertions that stay on in release builds.
//
// Failure-handling policy (PR 7):
//
//   * OEF_CHECK / OEF_CHECK_MSG abort the process. They guard *programming
//     errors* — internal invariants that can only break through a bug in this
//     repository (index arithmetic, representation consistency). Aborting is
//     correct there: the state is unknowable and continuing would corrupt
//     results silently.
//   * OEF_REQUIRE / OEF_REQUIRE_MSG throw oef::common::CheckError. They guard
//     *recoverable conditions at module boundaries* — malformed caller input
//     (bad sizes, non-positive weights) and bookkeeping that an embedding
//     system can reasonably mis-configure. Callers that serve requests (the
//     scheduler's degradation ladder, the allocator daemon, experiment
//     drivers) catch CheckError and degrade instead of dying.
//   * Conditions that occur in normal operation (singular bases, iteration
//     limits, oracle non-convergence) are not assertions at all: they are
//     reported through status enums (SolveStatus, AllocationStatus) so every
//     layer can escalate deliberately.
//
// Every CheckError carries a stable ErrorCode, so boundary handlers — in
// particular the daemon's CheckError → protocol status mapping — dispatch on
// code() instead of string-matching what().
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace oef::common {

/// Stable classification of a CheckError, independent of the message text.
/// Values are part of the checkpoint/protocol surface: append new codes, do
/// not renumber.
enum class ErrorCode {
  /// A guarded precondition failed with no finer classification (the default
  /// for plain OEF_REQUIRE).
  kPreconditionFailed = 0,
  /// Malformed caller input: bad value, non-positive weight, unknown id.
  kInvalidArgument = 1,
  /// Caller input with inconsistent shapes (row arity vs capacity count).
  kDimensionMismatch = 2,
  /// API used out of sequence (e.g. incremental call before any solve).
  kBadState = 3,
  /// A serialized artifact (checkpoint, wire payload) failed to parse or
  /// failed its integrity check.
  kCorruptData = 4,
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// True when no id repeats in `ids`: the boundary check for stable user and
/// tenant ids, which each caller reports under its own ErrorCode.
[[nodiscard]] bool all_distinct(std::vector<std::size_t> ids);

/// Thrown by OEF_REQUIRE at recoverable module boundaries. Derives from
/// std::runtime_error so generic handlers (and tests) can catch it without
/// including this header; handlers that can act on the classification use
/// code() instead of parsing what().
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what,
                      ErrorCode code = ErrorCode::kPreconditionFailed)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const char* msg) {
  std::fprintf(stderr, "OEF_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg[0] != '\0' ? " — " : "", msg);
  std::abort();
}

[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const char* msg, ErrorCode code) {
  std::string what = "OEF_REQUIRE failed: ";
  what += expr;
  what += " at ";
  what += file;
  what += ":";
  what += std::to_string(line);
  if (msg[0] != '\0') {
    what += " — ";
    what += msg;
  }
  throw CheckError(what, code);
}

}  // namespace oef::common

#define OEF_CHECK(expr)                                                 \
  do {                                                                  \
    if (!(expr)) ::oef::common::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define OEF_CHECK_MSG(expr, msg)                                          \
  do {                                                                    \
    if (!(expr)) ::oef::common::check_failed(#expr, __FILE__, __LINE__, msg); \
  } while (false)

#define OEF_REQUIRE(expr)                                                      \
  do {                                                                         \
    if (!(expr))                                                               \
      ::oef::common::require_failed(#expr, __FILE__, __LINE__, "",             \
                                    ::oef::common::ErrorCode::kPreconditionFailed); \
  } while (false)

#define OEF_REQUIRE_MSG(expr, msg)                                             \
  do {                                                                         \
    if (!(expr))                                                               \
      ::oef::common::require_failed(#expr, __FILE__, __LINE__, msg,            \
                                    ::oef::common::ErrorCode::kPreconditionFailed); \
  } while (false)

/// OEF_REQUIRE with an explicit ErrorCode, for boundaries whose failures a
/// serving layer maps to protocol status codes.
#define OEF_REQUIRE_CODE(expr, code, msg)                                  \
  do {                                                                     \
    if (!(expr))                                                           \
      ::oef::common::require_failed(#expr, __FILE__, __LINE__, msg, code); \
  } while (false)

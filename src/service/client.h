// Client library for the allocator daemon (PR 9).
//
// The retry contract that makes the daemon's at-most-once semantics work
// end-to-end lives here:
//
//   * Every mutation is stamped with an idempotent request id (random base +
//     counter, fixed at the first attempt). Retries resend the *same* id, so
//     a request whose response was lost — not the request itself — is
//     answered "duplicate, already applied" instead of applying twice.
//   * Timeouts, connection drops, and corrupt-frame replies trigger
//     reconnect + retry under exponential backoff with multiplicative
//     jitter, up to max_attempts; the terminal failure is a kInternalError
//     response, never an exception, so callers degrade instead of unwind.
//   * A WireFaultInjector sits on the send path, engaged when any of its
//     probabilities is non-zero — the chaos harness drives
//     drops/dups/delays/truncations through a real client and asserts the
//     contract above survives them.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "service/protocol.h"
#include "service/wire_fault.h"

namespace oef::service {

struct ClientOptions {
  std::string socket_path;
  /// Total send attempts per call (first try + retries).
  std::size_t max_attempts = 5;
  double initial_backoff_seconds = 0.01;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.5;
  /// How long one attempt waits for its matching response.
  double response_timeout_seconds = 1.0;
  /// Seeds backoff jitter and the request-id base.
  std::uint64_t seed = 1;
  /// Send-path fault injection for the chaos harness; all-zero
  /// probabilities (the default) leave the send path untouched.
  WireFaultOptions send_faults;
};

class AllocatorClient {
 public:
  explicit AllocatorClient(ClientOptions options);
  ~AllocatorClient();

  AllocatorClient(const AllocatorClient&) = delete;
  AllocatorClient& operator=(const AllocatorClient&) = delete;

  /// Sends `request`, retrying with backoff until a matching response
  /// arrives or attempts run out (then status kInternalError). A zero
  /// request_id is replaced with a fresh idempotent id; the id used is
  /// echoed in the returned response.
  [[nodiscard]] Response call(Request request);

  /// Total retries (attempts beyond the first) across all calls.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] const WireFaultStats& fault_stats() const { return faults_.stats(); }

 private:
  [[nodiscard]] bool ensure_connected();
  void disconnect();
  [[nodiscard]] bool await_response(std::uint64_t request_id, Response& out);

  ClientOptions options_;
  common::Rng rng_;
  WireFaultInjector faults_;
  int fd_ = -1;
  std::uint64_t id_base_ = 0;
  std::uint64_t id_counter_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace oef::service

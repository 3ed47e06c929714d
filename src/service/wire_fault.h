// Deterministic wire-level fault injection (PR 9).
//
// Extends the solver's FaultInjector philosophy (see solver/fault_injector.h)
// to the transport: a seeded WireFaultInjector sits on the send path and
// drops, duplicates, delays, or truncates outgoing frames. The protocol's
// framing must turn every such fault into a detected condition — a checksum
// failure, a resynchronised stream, or a client retry — never into a
// misparsed request or a lost acknowledged update. The chaos soak drives the
// daemon through exactly this injector.
//
// All randomness comes from one seeded xoshiro stream, so a failing chaos run
// is reproducible from its seed alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.h"

namespace oef::service {

struct WireFaultOptions {
  std::uint64_t seed = 1;
  /// Probability a frame is silently dropped.
  double drop_probability = 0.0;
  /// Probability a frame is sent twice back-to-back.
  double duplicate_probability = 0.0;
  /// Probability a frame is truncated to a random strict prefix.
  double truncate_probability = 0.0;
  /// Probability a frame's payload has one random bit flipped (the checksum
  /// must catch it).
  double corrupt_probability = 0.0;
  /// Probability the sender stalls before the frame, and the stall bounds.
  double delay_probability = 0.0;
  double min_delay_seconds = 0.0;
  double max_delay_seconds = 0.0;
};

struct WireFaultStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t truncated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
};

class WireFaultInjector {
 public:
  explicit WireFaultInjector(WireFaultOptions options = {})
      : options_(options), rng_(options.seed) {}

  /// Decides this frame's fate. Returns the bytes to actually write (empty =
  /// drop) and sets `delay_seconds` to how long the sender should stall
  /// first (0 = no stall). A duplicated frame is returned as two concatenated
  /// copies — with length-prefixed framing the receiver splits them back.
  [[nodiscard]] std::string apply(const std::string& frame, double& delay_seconds);

  /// True when any fault probability is non-zero; senders skip apply()
  /// otherwise.
  [[nodiscard]] bool enabled() const {
    return options_.drop_probability > 0.0 || options_.duplicate_probability > 0.0 ||
           options_.truncate_probability > 0.0 || options_.corrupt_probability > 0.0 ||
           options_.delay_probability > 0.0;
  }

  [[nodiscard]] const WireFaultStats& stats() const { return stats_; }

 private:
  WireFaultOptions options_;
  common::Rng rng_;
  WireFaultStats stats_;
};

}  // namespace oef::service

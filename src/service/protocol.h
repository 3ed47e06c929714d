// Wire protocol of the allocator daemon (PR 9).
//
// The daemon speaks a minimal length-prefixed framed protocol over a stream
// socket — no external RPC dependency. A frame is:
//
//   bytes 0..3   magic "OEF1"
//   bytes 4..7   payload length, u32 little-endian
//   bytes 8..15  FNV-1a 64 checksum of the payload, u64 little-endian
//   bytes 16..   payload (SerialWriter token stream)
//
// The checksum turns a bit-flipped payload into a detected kCorruptFrame
// instead of a misparsed request; the length prefix keeps the stream in sync
// across corrupt payloads, so one bad frame never poisons the connection.
// A truncated frame (fewer bytes than the header promises) is only detectable
// by the read timing out — the reader reports kNeedMore and the transport
// layer decides when to give up and drop the connection.
//
// Payload schemas are flat SerialReader/SerialWriter field sequences defined
// by encode_request/decode_request and encode_response/decode_response; see
// docs/SERVICE.md for the field-by-field layout.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/serial.h"
#include "core/allocation.h"
#include "core/oef.h"

namespace oef::service {

/// Operations the daemon serves.
enum class MessageType : std::uint64_t {
  /// Force a re-solve and return the fresh allocation snapshot.
  kAllocate = 0,
  /// Register a tenant (name, demand row, weight). Not droppable.
  kAddTenant = 1,
  /// Deregister a tenant. Not droppable.
  kRemoveTenant = 2,
  /// Replace a tenant's demand row (and optionally weight). Droppable.
  kUpdateDemand = 3,
  /// Read the last-good allocation snapshot. Never queued.
  kQueryAllocation = 4,
  /// Liveness + ServiceStats. Never queued.
  kHealth = 5,
  /// Ask the daemon to drain and exit.
  kShutdown = 6,
};

/// Response status. Values are wire-stable: append, do not renumber.
enum class StatusCode : std::uint64_t {
  kOk = 0,
  /// Request served, but the allocation is degraded (deadline/round cap hit
  /// mid-solve, or the solver fell down its degradation ladder). The attached
  /// snapshot is capacity-feasible and servable.
  kDegraded = 1,
  /// Shed by admission control; the attached snapshot is the last-good
  /// allocation, so the caller still has something servable in hand.
  kOverloaded = 2,
  /// The request's deadline expired while it waited in the queue.
  kDeadlineExpired = 3,
  kInvalidArgument = 4,
  kNotFound = 5,
  kAlreadyExists = 6,
  kShuttingDown = 7,
  /// The solve itself failed (LP infeasible after every ladder rung).
  kFailed = 8,
  kInternalError = 9,
};

[[nodiscard]] const char* to_string(MessageType type);
[[nodiscard]] const char* to_string(StatusCode status);

/// Maps a CheckError caught at the service boundary onto the wire status.
[[nodiscard]] StatusCode status_from_error(const common::CheckError& error);

/// Maps an allocation outcome onto the wire status.
[[nodiscard]] StatusCode status_from_outcome(core::AllocationStatus outcome);

struct Request {
  MessageType type = MessageType::kHealth;
  /// Idempotency key. Retries resend the same id; the daemon remembers
  /// applied ids (across restarts, via the checkpoint) and answers a
  /// duplicate mutation with kOk + the current snapshot instead of applying
  /// it twice. 0 = no idempotency tracking.
  std::uint64_t request_id = 0;
  /// Per-request budget in seconds, anchored at daemon arrival (monotonic
  /// clock); queueing and coalescing delay draw it down. 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Tenant name for kAddTenant / kRemoveTenant / kUpdateDemand.
  std::string tenant;
  /// Raw per-type throughput row for kAddTenant / kUpdateDemand.
  std::vector<double> demand;
  /// Multiplicity (weight) for kAddTenant / kUpdateDemand; must be > 0.
  double weight = 1.0;
};

/// Allocation snapshot attached to allocate/query/overload responses.
struct WireSnapshot {
  std::uint64_t version = 0;
  /// Quality of the resolve that produced this snapshot (kOk or kDegraded).
  StatusCode quality = StatusCode::kOk;
  double total_efficiency = 0.0;
  std::vector<std::string> tenants;
  std::vector<std::vector<double>> shares;
};

struct Response {
  std::uint64_t request_id = 0;
  StatusCode status = StatusCode::kInternalError;
  /// Human-readable detail, mostly for error statuses.
  std::string message;
  /// True when `snapshot` is populated.
  bool has_snapshot = false;
  WireSnapshot snapshot;
  /// kHealth only: flat key/value stat counters.
  std::vector<std::string> stat_keys;
  std::vector<double> stat_values;
};

/// Snapshot field-sequence (de)serialization, shared by the response payload
/// and the service checkpoint.
void write_wire_snapshot(common::SerialWriter& out, const WireSnapshot& snapshot);
[[nodiscard]] WireSnapshot read_wire_snapshot(common::SerialReader& in);

[[nodiscard]] std::string encode_request(const Request& request);
[[nodiscard]] Request decode_request(std::string_view payload);

[[nodiscard]] std::string encode_response(const Response& response);
[[nodiscard]] Response decode_response(std::string_view payload);

/// Wraps a payload into a frame (magic + length + checksum + payload).
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Writes all of `bytes` to socket `fd`, retrying on EINTR (MSG_NOSIGNAL: a
/// vanished peer must not SIGPIPE the writer). Returns false on any other
/// error.
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

enum class FrameStatus {
  /// A complete, checksum-valid frame was extracted.
  kOk,
  /// The buffer holds only a prefix of a frame; feed more bytes.
  kNeedMore,
  /// Bad magic or checksum mismatch. The frame's bytes were consumed (the
  /// length prefix keeps the stream in sync); the payload is untrusted.
  kCorrupt,
};

/// Incremental frame extractor for a byte stream. Append received bytes with
/// feed(), then call next() until it stops returning kOk.
class FrameReader {
 public:
  /// Frames larger than this are treated as corrupt (a corrupted length
  /// prefix must not drive a multi-GB buffer wait).
  static constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

  void feed(std::string_view bytes) { buffer_.append(bytes.data(), bytes.size()); }

  /// Extracts the next frame's payload into `payload`.
  [[nodiscard]] FrameStatus next(std::string& payload);

  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

}  // namespace oef::service

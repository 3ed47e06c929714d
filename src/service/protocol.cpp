#include "service/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

#include "common/serial.h"

namespace oef::service {

namespace {

constexpr char kMagic[4] = {'O', 'E', 'F', '1'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

void put_u32_le(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

void put_u64_le(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

[[nodiscard]] std::uint32_t get_u32_le(const char* bytes) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i])) << (8 * i);
  }
  return value;
}

[[nodiscard]] std::uint64_t get_u64_le(const char* bytes) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i])) << (8 * i);
  }
  return value;
}

}  // namespace

void write_wire_snapshot(common::SerialWriter& out, const WireSnapshot& snapshot) {
  out.u64(snapshot.version);
  out.u64(static_cast<std::uint64_t>(snapshot.quality));
  out.f64(snapshot.total_efficiency);
  out.u64(snapshot.tenants.size());
  for (const std::string& tenant : snapshot.tenants) out.str(tenant);
  out.u64(snapshot.shares.size());
  for (const std::vector<double>& row : snapshot.shares) out.f64_vec(row);
}

WireSnapshot read_wire_snapshot(common::SerialReader& in) {
  WireSnapshot snapshot;
  snapshot.version = in.u64();
  const std::uint64_t quality = in.u64();
  OEF_REQUIRE_CODE(quality <= static_cast<std::uint64_t>(StatusCode::kInternalError),
                   common::ErrorCode::kCorruptData, "snapshot quality tag out of range");
  snapshot.quality = static_cast<StatusCode>(quality);
  snapshot.total_efficiency = in.f64();
  const std::uint64_t num_tenants = in.count();
  snapshot.tenants.reserve(num_tenants);
  for (std::uint64_t i = 0; i < num_tenants; ++i) snapshot.tenants.push_back(in.str());
  const std::uint64_t num_rows = in.count();
  snapshot.shares.reserve(num_rows);
  for (std::uint64_t i = 0; i < num_rows; ++i) snapshot.shares.push_back(in.f64_vec());
  return snapshot;
}

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kAllocate: return "allocate";
    case MessageType::kAddTenant: return "add_tenant";
    case MessageType::kRemoveTenant: return "remove_tenant";
    case MessageType::kUpdateDemand: return "update_demand";
    case MessageType::kQueryAllocation: return "query_allocation";
    case MessageType::kHealth: return "health";
    case MessageType::kShutdown: return "shutdown";
  }
  return "unknown";
}

const char* to_string(StatusCode status) {
  switch (status) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kDegraded: return "degraded";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kDeadlineExpired: return "deadline_expired";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kShuttingDown: return "shutting_down";
    case StatusCode::kFailed: return "failed";
    case StatusCode::kInternalError: return "internal_error";
  }
  return "unknown";
}

StatusCode status_from_error(const common::CheckError& error) {
  switch (error.code()) {
    case common::ErrorCode::kInvalidArgument:
    case common::ErrorCode::kDimensionMismatch: return StatusCode::kInvalidArgument;
    case common::ErrorCode::kCorruptData: return StatusCode::kInvalidArgument;
    case common::ErrorCode::kBadState:
    case common::ErrorCode::kPreconditionFailed: return StatusCode::kInternalError;
  }
  return StatusCode::kInternalError;
}

StatusCode status_from_outcome(core::AllocationStatus outcome) {
  switch (outcome) {
    case core::AllocationStatus::kOptimal: return StatusCode::kOk;
    case core::AllocationStatus::kDegraded: return StatusCode::kDegraded;
    case core::AllocationStatus::kFailed: return StatusCode::kFailed;
    case core::AllocationStatus::kNotSolved: return StatusCode::kInternalError;
  }
  return StatusCode::kInternalError;
}

std::string encode_request(const Request& request) {
  common::SerialWriter out;
  out.u64(static_cast<std::uint64_t>(request.type));
  out.u64(request.request_id);
  out.f64(request.deadline_seconds);
  out.str(request.tenant);
  out.f64_vec(request.demand);
  out.f64(request.weight);
  return out.take();
}

Request decode_request(std::string_view payload) {
  common::SerialReader in(payload);
  Request request;
  const std::uint64_t type = in.u64();
  OEF_REQUIRE_CODE(type <= static_cast<std::uint64_t>(MessageType::kShutdown),
                   common::ErrorCode::kCorruptData, "request type tag out of range");
  request.type = static_cast<MessageType>(type);
  request.request_id = in.u64();
  request.deadline_seconds = in.f64();
  request.tenant = in.str();
  request.demand = in.f64_vec();
  request.weight = in.f64();
  OEF_REQUIRE_CODE(in.at_end(), common::ErrorCode::kCorruptData,
                   "trailing bytes after request payload");
  return request;
}

std::string encode_response(const Response& response) {
  common::SerialWriter out;
  out.u64(response.request_id);
  out.u64(static_cast<std::uint64_t>(response.status));
  out.str(response.message);
  out.u64(response.has_snapshot ? 1 : 0);
  if (response.has_snapshot) write_wire_snapshot(out, response.snapshot);
  out.u64(response.stat_keys.size());
  for (const std::string& key : response.stat_keys) out.str(key);
  out.f64_vec(response.stat_values);
  return out.take();
}

Response decode_response(std::string_view payload) {
  common::SerialReader in(payload);
  Response response;
  response.request_id = in.u64();
  const std::uint64_t status = in.u64();
  OEF_REQUIRE_CODE(status <= static_cast<std::uint64_t>(StatusCode::kInternalError),
                   common::ErrorCode::kCorruptData, "response status tag out of range");
  response.status = static_cast<StatusCode>(status);
  response.message = in.str();
  response.has_snapshot = in.u64() != 0;
  if (response.has_snapshot) response.snapshot = read_wire_snapshot(in);
  const std::uint64_t num_keys = in.count();
  response.stat_keys.reserve(num_keys);
  for (std::uint64_t i = 0; i < num_keys; ++i) response.stat_keys.push_back(in.str());
  response.stat_values = in.f64_vec();
  OEF_REQUIRE_CODE(response.stat_values.size() == response.stat_keys.size(),
                   common::ErrorCode::kCorruptData, "stat key/value arity mismatch");
  OEF_REQUIRE_CODE(in.at_end(), common::ErrorCode::kCorruptData,
                   "trailing bytes after response payload");
  return response;
}

std::string encode_frame(std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, 4);
  put_u32_le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64_le(frame, common::fnv1a64(payload));
  frame.append(payload.data(), payload.size());
  return frame;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

FrameStatus FrameReader::next(std::string& payload) {
  payload.clear();
  if (buffer_.size() < kHeaderBytes) return FrameStatus::kNeedMore;
  if (std::memcmp(buffer_.data(), kMagic, 4) != 0) {
    // Out of sync; resynchronise at the next magic, consuming the garbage.
    const std::size_t next_magic = buffer_.find("OEF1", 1);
    buffer_.erase(0, next_magic == std::string::npos ? buffer_.size() : next_magic);
    return FrameStatus::kCorrupt;
  }
  const std::uint32_t length = get_u32_le(buffer_.data() + 4);
  if (length > kMaxPayloadBytes) {
    buffer_.erase(0, kHeaderBytes);
    return FrameStatus::kCorrupt;
  }
  if (buffer_.size() < kHeaderBytes + length) return FrameStatus::kNeedMore;
  const std::uint64_t checksum = get_u64_le(buffer_.data() + 8);
  const std::string_view body(buffer_.data() + kHeaderBytes, length);
  const bool valid = common::fnv1a64(body) == checksum;
  if (valid) payload.assign(body.data(), body.size());
  buffer_.erase(0, kHeaderBytes + length);
  return valid ? FrameStatus::kOk : FrameStatus::kCorrupt;
}

}  // namespace oef::service

#include "service/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/clock.h"

namespace oef::service {

AllocatorClient::AllocatorClient(ClientOptions options)
    : options_(std::move(options)), rng_(options_.seed), faults_(options_.send_faults) {
  // Random high bits + a counter in the low bits: ids are unique per client
  // instance and collision-free across concurrent clients with high
  // probability, while staying non-zero (zero means "no idempotency").
  id_base_ = (rng_.next_u64() | 1ULL) << 20;
}

AllocatorClient::~AllocatorClient() { disconnect(); }

void AllocatorClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool AllocatorClient::ensure_connected() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool AllocatorClient::await_response(std::uint64_t request_id, Response& out) {
  FrameReader reader;
  char buffer[1 << 16];
  const common::Deadline deadline = common::Deadline::after(options_.response_timeout_seconds);
  while (!deadline.expired()) {
    const int timeout_ms = static_cast<int>(
        std::max(1.0, std::min(100.0, deadline.remaining() * 1000.0)));
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // server closed mid-wait: retry on a fresh connection
    }
    reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    std::string payload;
    for (;;) {
      const FrameStatus status = reader.next(payload);
      if (status == FrameStatus::kNeedMore) break;
      if (status == FrameStatus::kCorrupt) continue;  // retry will re-fetch
      try {
        Response response = decode_response(payload);
        // Stale responses (a duplicate delivery of an earlier answer, or the
        // server's id-0 corrupt-frame notice) are skipped, not errors.
        if (response.request_id == request_id) {
          out = std::move(response);
          return true;
        }
      } catch (const common::CheckError&) {
        continue;  // undecodable payload: treat like a corrupt frame
      }
    }
  }
  return false;
}

Response AllocatorClient::call(Request request) {
  if (request.request_id == 0) request.request_id = id_base_ + ++id_counter_;
  const std::string frame = encode_frame(encode_request(request));
  double backoff = options_.initial_backoff_seconds;
  for (std::size_t attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      // Multiplicative jitter keeps synchronized clients from retrying in
      // lockstep against an overloaded daemon.
      const double sleep_seconds = backoff * (0.5 + 0.5 * rng_.uniform());
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
      backoff = std::min(backoff * options_.backoff_multiplier,
                         options_.max_backoff_seconds);
    }
    if (!ensure_connected()) continue;
    std::string wire = frame;
    if (faults_.enabled()) {
      double delay_seconds = 0.0;
      wire = faults_.apply(frame, delay_seconds);
      if (delay_seconds > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
      }
    }
    if (!wire.empty() && !send_all(fd_, wire)) {
      disconnect();
      continue;
    }
    Response response;
    if (await_response(request.request_id, response)) return response;
    // No (matching) response this attempt. The request may or may not have
    // been applied — exactly why the id is reused on the retry.
    disconnect();
  }
  Response failure;
  failure.request_id = request.request_id;
  failure.status = StatusCode::kInternalError;
  failure.message = "no response after " + std::to_string(options_.max_attempts) +
                    " attempt(s)";
  return failure;
}

}  // namespace oef::service

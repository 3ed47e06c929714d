#include "service/daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/check.h"
#include "common/clock.h"
#include "service/protocol.h"

namespace oef::service {

namespace {

/// True when a listener accepts connections at `addr`: a live daemon.
[[nodiscard]] bool accepts_connections(const sockaddr_un& addr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool live = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return live;
}

}  // namespace

Daemon::Daemon(AllocatorService& service, DaemonOptions options)
    : service_(service),
      options_(std::move(options)),
      response_faults_(options_.response_faults) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  OEF_REQUIRE_CODE(!options_.socket_path.empty(), common::ErrorCode::kInvalidArgument,
                   "daemon needs a socket path");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  OEF_REQUIRE_CODE(listen_fd_ >= 0, common::ErrorCode::kBadState, "socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  OEF_REQUIRE_CODE(options_.socket_path.size() < sizeof(addr.sun_path),
                   common::ErrorCode::kInvalidArgument, "socket path too long");
  std::strncpy(addr.sun_path, options_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  // A stale socket file from a killed daemon would make bind fail forever,
  // so it is unlinked first. A live daemon's is refused instead: replacing
  // its file would leave that daemon listening where no client can reach it.
  if (accepts_connections(addr)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    OEF_REQUIRE_CODE(false, common::ErrorCode::kBadState,
                     "socket path is served by a live daemon");
  }
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    OEF_REQUIRE_CODE(false, common::ErrorCode::kBadState, "bind() failed");
  }
  bound_ = true;
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    OEF_REQUIRE_CODE(false, common::ErrorCode::kBadState, "listen() failed");
  }
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_.load(); });
}

void Daemon::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes accept(); the descriptor is closed only once the accept
  // thread, which reads listen_fd_, has exited (a freed number can be reused).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // Under mu_, so a wait() on another thread cannot test stopping_ just
    // before this store and then sleep through the notification.
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_cv_.notify_all();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  // Only the file this daemon bound: after a refused start the path is
  // another daemon's.
  if (bound_) ::unlink(options_.socket_path.c_str());
}

void Daemon::reap_finished_connections() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or fatal
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    reap_finished_connections();
    Connection connection;
    connection.done = std::make_shared<std::atomic<bool>>(false);
    auto done = connection.done;
    connection.thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    std::lock_guard<std::mutex> lock(mu_);
    connections_.push_back(std::move(connection));
  }
}

void Daemon::serve_connection(int fd) {
  FrameReader reader;
  char buffer[1 << 16];
  // Progress deadline for a partially buffered frame (truncation defence).
  double partial_since = -1.0;
  bool open = true;
  while (open && !stopping_.load()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // client closed or errored
      }
      reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      partial_since = -1.0;  // bytes arrived: the frame is making progress
    }
    // Drain every complete frame currently buffered.
    std::string payload;
    for (;;) {
      const FrameStatus status = reader.next(payload);
      if (status == FrameStatus::kNeedMore) break;
      if (status == FrameStatus::kCorrupt) {
        Response response;
        response.request_id = 0;  // untrusted bytes: the real id is unknowable
        response.status = StatusCode::kInvalidArgument;
        response.message = "corrupt frame (checksum mismatch)";
        if (!send_all(fd, encode_frame(encode_response(response)))) open = false;
        continue;
      }
      Response response;
      try {
        const Request request = decode_request(payload);
        response = service_.handle(request);
        if (request.type == MessageType::kShutdown) {
          std::lock_guard<std::mutex> lock(mu_);
          shutdown_requested_ = true;
          shutdown_cv_.notify_all();
        }
      } catch (const common::CheckError& error) {
        response.request_id = 0;
        response.status = status_from_error(error);
        response.message = error.what();
      } catch (const std::exception& error) {
        response.request_id = 0;
        response.status = StatusCode::kInternalError;
        response.message = error.what();
      }
      std::string frame = encode_frame(encode_response(response));
      if (response_faults_.enabled()) {
        double delay_seconds = 0.0;
        {
          std::lock_guard<std::mutex> lock(fault_mu_);
          frame = response_faults_.apply(frame, delay_seconds);
        }
        if (delay_seconds > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
        }
        if (frame.empty()) continue;  // response dropped; the client retries
      }
      if (!send_all(fd, frame)) {
        open = false;
        break;
      }
    }
    // Truncation defence: a frame prefix that stops making progress for
    // io_timeout_seconds means the rest is never coming.
    if (reader.buffered_bytes() > 0) {
      const double now = common::monotonic_seconds();
      if (partial_since < 0.0) {
        partial_since = now;
      } else if (now - partial_since > options_.io_timeout_seconds) {
        break;
      }
    } else {
      partial_since = -1.0;
    }
  }
  ::close(fd);
}

void run_daemon(const ServiceOptions& service_options, const DaemonOptions& daemon_options) {
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  AllocatorService service(service_options);
  Daemon daemon(service, daemon_options);
  daemon.start();
  std::thread stopper([&] {
    int signal = 0;
    sigwait(&stop_signals, &signal);
    daemon.stop();
  });
  daemon.wait();
  // A kShutdown request ended wait(): wake the stopper. If a signal ended
  // it, the stopper is already past sigwait, and this one stays blocked on
  // it until the thread exits and discards it.
  pthread_kill(stopper.native_handle(), SIGTERM);
  stopper.join();
}

}  // namespace oef::service

// Socket front end of the allocator service (PR 9).
//
// A Unix-domain stream listener speaking the framed protocol of
// service/protocol.h. One thread accepts; each connection gets a serving
// thread that extracts frames, decodes requests, calls
// AllocatorService::handle(), and writes framed responses. All allocation
// logic, queueing, and durability live in the service — the daemon only
// moves validated frames.
//
// Wire robustness at this layer:
//   * A checksum-corrupt frame is answered with kInvalidArgument under
//     request id 0 (the client cannot be identified from untrusted bytes)
//     and the connection continues — the length prefix kept the stream in
//     sync.
//   * A truncated frame starves the connection: after io_timeout_seconds
//     with a partial frame buffered, the connection is dropped and the
//     client's retry (same request id) lands on a fresh connection.
//   * A WireFaultInjector on the response path (engaged when any of its
//     probabilities is non-zero) lets the chaos harness exercise client-side
//     retry against a misbehaving server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "service/wire_fault.h"

namespace oef::service {

struct DaemonOptions {
  std::string socket_path;
  /// A connection with a partial frame buffered is dropped after this long
  /// without progress (the truncated-frame defence).
  double io_timeout_seconds = 2.0;
  /// Response-path fault injection for the chaos harness; all-zero
  /// probabilities (the default) leave the response path untouched.
  WireFaultOptions response_faults;
};

class Daemon {
 public:
  /// The service must outlive the daemon.
  Daemon(AllocatorService& service, DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and starts accepting. A socket file left by a killed
  /// daemon is replaced. Throws CheckError(kBadState) when a live daemon
  /// accepts connections on the path, or on bind/listen failure.
  void start();

  /// Blocks until a kShutdown request (or stop() from another thread).
  void wait();

  /// Stops accepting, drops connections, joins all threads, and removes the
  /// socket file if start() bound it. Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const { return options_.socket_path; }

 private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_connections();

  AllocatorService& service_;
  DaemonOptions options_;
  int listen_fd_ = -1;
  /// start() created the socket file, so stop() removes it.
  bool bound_ = false;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  std::thread accept_thread_;
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> connections_;
  std::mutex fault_mu_;
  WireFaultInjector response_faults_;
};

/// oefd's serving loop: builds the service and its daemon, serves until
/// SIGINT, SIGTERM or a kShutdown request, then drains and stops. SIGINT and
/// SIGTERM are blocked before the first thread starts, so every thread
/// inherits the mask, and one thread takes them with sigwait and is the only
/// caller of Daemon::stop(): a signal drains the daemon whichever of its
/// threads the kernel hands it to. Throws CheckError when the checkpoint
/// cannot be restored or the socket cannot be bound.
void run_daemon(const ServiceOptions& service_options, const DaemonOptions& daemon_options);

}  // namespace oef::service

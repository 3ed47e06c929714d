// oefd — the long-lived allocator daemon (PR 9).
//
// Serves allocate / add_tenant / remove_tenant / update_demand /
// query_allocation / health over a Unix-domain socket, keeping the
// OefAllocator's warm state (solver basis, envy pool) alive across requests
// and — via the checkpoint — across restarts.
//
// Usage:
//   oefd --socket=/run/oefd.sock --capacities=8,4,2 [options]
//
// Options:
//   --socket=PATH          Unix socket to listen on (required)
//   --capacities=C1,C2,..  GPU devices per type, slowest first (required)
//   --mode=coop|noncoop    allocator mode (default coop)
//   --checkpoint=PATH      checkpoint file; enables crash-safe durability
//   --queue-depth=N        admission-control bound (default 64)
//   --coalesce-ms=M        batch window for close-together updates (default 0)
//   --deadline-ms=M        default per-request budget (default 0 = none)
//
// SIGINT and SIGTERM drain and stop the daemon (see run_daemon).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "service/daemon.h"
#include "service/service.h"

namespace {

[[nodiscard]] std::vector<double> parse_csv(const std::string& text) {
  std::vector<double> values;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    values.push_back(std::stod(text.substr(begin, end - begin)));
    begin = end + 1;
  }
  return values;
}

[[nodiscard]] bool consume(const char* arg, const char* key, std::string& value) {
  const std::size_t len = std::strlen(key);
  if (std::strncmp(arg, key, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  oef::service::ServiceOptions service_options;
  oef::service::DaemonOptions daemon_options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (consume(argv[i], "--socket", value)) {
      daemon_options.socket_path = value;
    } else if (consume(argv[i], "--capacities", value)) {
      service_options.capacities = parse_csv(value);
    } else if (consume(argv[i], "--mode", value)) {
      service_options.mode = value == "noncoop"
                                 ? oef::core::OefAllocator::Mode::kNonCooperative
                                 : oef::core::OefAllocator::Mode::kCooperative;
    } else if (consume(argv[i], "--checkpoint", value)) {
      service_options.checkpoint_path = value;
    } else if (consume(argv[i], "--queue-depth", value)) {
      service_options.max_queue_depth = static_cast<std::size_t>(std::stoul(value));
    } else if (consume(argv[i], "--coalesce-ms", value)) {
      service_options.coalesce_window_seconds = std::stod(value) / 1000.0;
    } else if (consume(argv[i], "--deadline-ms", value)) {
      service_options.default_deadline_seconds = std::stod(value) / 1000.0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (daemon_options.socket_path.empty() || service_options.capacities.empty()) {
    std::fprintf(stderr,
                 "usage: oefd --socket=PATH --capacities=C1,C2,... "
                 "[--mode=coop|noncoop] [--checkpoint=PATH] [--queue-depth=N] "
                 "[--coalesce-ms=M] [--deadline-ms=M]\n");
    return 2;
  }

  try {
    oef::service::run_daemon(service_options, daemon_options);
  } catch (const oef::common::CheckError& error) {
    std::fprintf(stderr, "oefd: %s\n", error.what());
    return 1;
  }
  return 0;
}

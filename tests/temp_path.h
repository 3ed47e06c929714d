// Per-process temp-file names for the service tests.
#pragma once

#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

namespace oef::tests {

/// `name` in the test temp dir, suffixed with this process's id, so another
/// build's copy of the same test binary can run at the same time without
/// sharing its checkpoint files or its daemon's socket.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

}  // namespace oef::tests

// Restore robustness of the allocator service: a valid checkpoint of each
// allocator mode has each of its tokens rewritten in turn to a hostile value,
// cut off just before it, or deleted, and is re-wrapped by write_checkpoint,
// so the checksum verifies and only the payload's contents are wrong. Every
// rewrite must either restore a service that then answers an allocate, or
// make construction throw CheckError (for oefd: exit 1 with a message). A
// rewrite that aborts the process fails the whole test binary.
//
// Two bit-flip sweeps reach what whole-token rewrites do not (broken
// hexfloats, merged tokens, flipped checksums): every single bit of a
// checkpoint file flipped, which the container must refuse, and every single
// bit of an allocator warm record flipped, which exercises the solver
// checkpoint loader on its own, behind no checksum.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/serial.h"
#include "core/oef.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "temp_path.h"

namespace oef::service {
namespace {

/// Non-finite, non-positive, huge and out-of-range values, each valid as a
/// u64 or f64 token somewhere in the payload.
constexpr const char* kSubstitutes[] = {
    "nan", "inf", "-inf", "0", "-1", "0x1p+1023", "18446744073709551615", "7"};

ServiceOptions sweep_options(core::OefAllocator::Mode mode, const std::string& path) {
  ServiceOptions options;
  options.mode = mode;
  options.capacities = {4.0, 2.0, 2.0};
  options.checkpoint_path = path;
  return options;
}

Request make_request(MessageType type, std::string tenant = {},
                     std::vector<double> demand = {}, double weight = 1.0) {
  Request request;
  request.type = type;
  request.tenant = std::move(tenant);
  request.demand = std::move(demand);
  request.weight = weight;
  return request;
}

/// (offset, length) of every whitespace-delimited token of `payload`.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& payload) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload[pos] == '\n' || payload[pos] == ' ') {
      ++pos;
      continue;
    }
    const std::size_t begin = pos;
    while (pos < payload.size() && payload[pos] != '\n' && payload[pos] != ' ') ++pos;
    spans.emplace_back(begin, pos - begin);
  }
  return spans;
}

/// Sweeps one mode's checkpoint; `min_tokens` guards against a fixture that
/// silently shrank.
void sweep_checkpoint(core::OefAllocator::Mode mode, const char* name, std::size_t min_tokens) {
  SCOPED_TRACE(name);
  const std::string path = tests::temp_path("oef_restore_sweep.ckpt");
  std::remove(path.c_str());
  {
    AllocatorService service(sweep_options(mode, path));
    const std::vector<Request> requests = {
        make_request(MessageType::kAddTenant, "t0", {1.0, 1.4, 2.0}),
        make_request(MessageType::kAddTenant, "t1", {1.0, 1.9, 2.3}, 2.0),
        make_request(MessageType::kAddTenant, "t2", {1.0, 1.2, 3.1}),
        make_request(MessageType::kAddTenant, "t3", {1.0, 2.2, 2.6}),
        make_request(MessageType::kAddTenant, "t4", {1.0, 1.6, 1.7}, 0.5),
        make_request(MessageType::kUpdateDemand, "t2", {1.0, 1.3, 2.9}),
    };
    for (const Request& request : requests) {
      ASSERT_EQ(service.handle(request).status, StatusCode::kOk);
    }
  }
  const std::optional<std::string> payload = load_checkpoint(path);
  ASSERT_TRUE(payload.has_value());
  {
    AllocatorService service(sweep_options(mode, path));
    ASSERT_TRUE(service.restored_warm()) << "the unmodified checkpoint must restore warm";
  }

  const auto spans = token_spans(*payload);
  ASSERT_GT(spans.size(), min_tokens);
  std::size_t restored = 0;
  std::size_t refused = 0;
  const auto try_restore = [&](const std::string& rewritten, const std::string& label) {
    write_checkpoint(path, rewritten);
    try {
      AllocatorService service(sweep_options(mode, path));
      const Response response = service.handle(make_request(MessageType::kAllocate));
      ++restored;
      if (response.status == StatusCode::kOk) {
        EXPECT_TRUE(std::isfinite(response.snapshot.total_efficiency)) << label;
      }
    } catch (const common::CheckError&) {
      ++refused;
    }
  };
  for (std::size_t t = 0; t < spans.size(); ++t) {
    const auto [offset, length] = spans[t];
    const std::string token = "token " + std::to_string(t) + " (" +
                              payload->substr(offset, length) + ")";
    for (const char* substitute : kSubstitutes) {
      std::string rewritten = *payload;
      rewritten.replace(offset, length, substitute);
      try_restore(rewritten, token + " -> " + substitute);
    }
    // Truncated just before the token, and shifted: with the token deleted,
    // every later field, counts included, reads its neighbour's value.
    try_restore(payload->substr(0, offset), token + " truncated");
    try_restore(std::string(*payload).erase(offset, length), token + " deleted");
  }
  EXPECT_EQ(restored + refused, spans.size() * (std::size(kSubstitutes) + 2));
  EXPECT_GT(restored, 0u);
  EXPECT_GT(refused, 0u);
  std::printf("restore sweep (%s): %zu tokens, %zu restored and answered, %zu refused\n",
              name, spans.size(), restored, refused);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ServiceRestoreSweep, EverySingleBitFlipOfTheFileIsRefused) {
  const std::string path = tests::temp_path("oef_bitflip_sweep.ckpt");
  std::remove(path.c_str());
  {
    AllocatorService service(sweep_options(core::OefAllocator::Mode::kCooperative, path));
    ASSERT_EQ(service.handle(make_request(MessageType::kAddTenant, "t0", {1.0, 1.4, 2.0})).status,
              StatusCode::kOk);
    ASSERT_EQ(service.handle(make_request(MessageType::kAddTenant, "t1", {1.0, 1.9, 2.3}, 2.0))
                  .status,
              StatusCode::kOk);
    ASSERT_EQ(service.handle(make_request(MessageType::kAddTenant, "t2", {1.0, 1.2, 3.1})).status,
              StatusCode::kOk);
  }
  const std::string file = read_file(path);
  ASSERT_GT(file.size(), 482u);
  std::size_t refused = 0;
  for (std::size_t bit = 0; bit < 8 * file.size(); ++bit) {
    std::string flipped = file;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    write_file(path, flipped);
    try {
      (void)load_checkpoint(path);
      ADD_FAILURE() << "bit " << bit << " flipped, yet the checkpoint loaded";
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData) << "bit " << bit;
      ++refused;
    }
  }
  EXPECT_EQ(refused, 8 * file.size());
  std::printf("bit-flip sweep (file): %zu bytes, %zu flips refused\n", file.size(), refused);
  std::remove(path.c_str());
}

TEST(ServiceRestoreSweep, EverySingleBitFlipOfAnAllocatorWarmRecordLoadsOrThrows) {
  const core::SpeedupMatrix w({{1.0, 1.4, 2.0}, {1.0, 1.9, 2.3}, {1.0, 1.2, 3.1}, {1.0, 2.2, 2.6}});
  const std::vector<double> capacities = {4.0, 2.0, 2.0};
  std::string record;
  {
    const core::OefAllocator allocator = core::make_cooperative_oef();
    ASSERT_TRUE(allocator.allocate(w, capacities).ok());
    common::SerialWriter out;
    allocator.save_warm_state(out);
    record = out.take();
  }
  ASSERT_GT(record.size(), 208u);
  std::size_t warm = 0;
  std::size_t cold = 0;
  std::size_t refused = 0;
  for (std::size_t bit = 0; bit < 8 * record.size(); ++bit) {
    std::string flipped = record;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    core::OefAllocator allocator = core::make_cooperative_oef();
    common::SerialReader in(flipped);
    try {
      ++(allocator.load_warm_state(in) ? warm : cold);
    } catch (const common::CheckError&) {
      ++refused;
      continue;
    }
    EXPECT_TRUE(allocator.allocate(w, capacities).ok()) << "bit " << bit;
  }
  EXPECT_EQ(warm + cold + refused, 8 * record.size());
  EXPECT_GT(warm, 0u);
  EXPECT_GT(refused, 0u);
  std::printf("bit-flip sweep (allocator record): %zu bytes, %zu warm, %zu cold, %zu refused\n",
              record.size(), warm, cold, refused);
}

TEST(ServiceRestoreSweep, EverySingleTokenRewriteRestoresOrThrows) {
  // The non-cooperative checkpoint carries no envy rows, so it is shorter
  // (112 tokens against 125).
  sweep_checkpoint(core::OefAllocator::Mode::kCooperative, "cooperative", 118);
  sweep_checkpoint(core::OefAllocator::Mode::kNonCooperative, "non-cooperative", 110);
}

}  // namespace
}  // namespace oef::service

// Wire protocol of the allocator daemon: frame and message round-trips,
// detection of truncated/corrupted/duplicated frames, sweeps of bit-flipped,
// truncated and length-lying input through the frame reader and both
// payload decoders, deterministic wire fault injection, status-code mapping,
// and the monotonic Deadline type the whole request path is built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/clock.h"
#include "service/protocol.h"
#include "service/wire_fault.h"

namespace oef::service {
namespace {

Request sample_request() {
  Request request;
  request.type = MessageType::kAddTenant;
  request.request_id = 0xDEADBEEFCAFEULL;
  request.deadline_seconds = 0.25;
  request.tenant = "tenant with spaces & symbols \n\t";
  request.demand = {1.0, 1.5, 1.0 / 3.0};
  request.weight = 2.5;
  return request;
}

Response sample_response() {
  Response response;
  response.request_id = 42;
  response.status = StatusCode::kDegraded;
  response.message = "deadline hit; serving relaxation optimum";
  response.has_snapshot = true;
  response.snapshot.version = 7;
  response.snapshot.quality = StatusCode::kDegraded;
  response.snapshot.total_efficiency = 3.25;
  response.snapshot.tenants = {"a", "b"};
  response.snapshot.shares = {{1.0, 0.0}, {0.0, 2.0}};
  response.stat_keys = {"resolves"};
  response.stat_values = {9.0};
  return response;
}

TEST(ServiceProtocol, RequestRoundTrip) {
  const Request original = sample_request();
  const Request decoded = decode_request(encode_request(original));
  EXPECT_EQ(decoded.type, original.type);
  EXPECT_EQ(decoded.request_id, original.request_id);
  EXPECT_EQ(decoded.deadline_seconds, original.deadline_seconds);
  EXPECT_EQ(decoded.tenant, original.tenant);
  EXPECT_EQ(decoded.demand, original.demand);
  EXPECT_EQ(decoded.weight, original.weight);
}

TEST(ServiceProtocol, ResponseRoundTrip) {
  const Response original = sample_response();
  const Response decoded = decode_response(encode_response(original));
  EXPECT_EQ(decoded.request_id, original.request_id);
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.message, original.message);
  ASSERT_TRUE(decoded.has_snapshot);
  EXPECT_EQ(decoded.snapshot.version, original.snapshot.version);
  EXPECT_EQ(decoded.snapshot.tenants, original.snapshot.tenants);
  EXPECT_EQ(decoded.snapshot.shares, original.snapshot.shares);
  EXPECT_EQ(decoded.stat_keys, original.stat_keys);
  EXPECT_EQ(decoded.stat_values, original.stat_values);
}

TEST(ServiceProtocol, MalformedPayloadThrowsCorruptData) {
  try {
    (void)decode_request("999 1 0x1p0");  // type tag out of range
    FAIL();
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
  try {
    (void)decode_response("not numbers at all");
    FAIL();
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
  }
}

TEST(ServiceProtocol, ContainerCountPastThePayloadThrowsBeforeAllocating) {
  // A 29-byte response whose snapshot claims 2^24 - 1 tenants. Reserving
  // that many names would take about 512 MiB; the count guard must refuse
  // the count first, with a coded error.
  common::SerialWriter out;
  out.u64(0);    // request id
  out.u64(0);    // status
  out.str("");   // message
  out.u64(1);    // has snapshot
  out.u64(0);    // snapshot version
  out.u64(0);    // snapshot quality
  out.f64(0.0);  // total efficiency
  out.u64((1u << 24) - 1);
  const std::string payload = out.take();
  ASSERT_EQ(payload.size(), 29u);
  try {
    (void)decode_response(payload);
    FAIL() << "a tenant count past the payload was accepted";
  } catch (const common::CheckError& error) {
    EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData);
    EXPECT_NE(std::string(error.what()).find("container count exceeds payload"),
              std::string::npos)
        << error.what();
  }
}

/// `bytes` with bit `bit` flipped (bit 0 is the first byte's lowest).
std::string flip_bit(std::string bytes, std::size_t bit) {
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  return bytes;
}

/// Feeds `decode` every single-bit flip of `payload` and every proper prefix
/// of it. Each case must decode or throw CheckError(kCorruptData).
template <typename Decode>
void expect_decodes_or_throws_corrupt(const char* name, const std::string& payload,
                                      const Decode& decode) {
  std::size_t cases = 0;
  std::size_t decoded = 0;
  std::size_t threw = 0;
  const auto run = [&](const std::string& input, const std::string& label) {
    ++cases;
    try {
      (void)decode(input);
      ++decoded;
    } catch (const common::CheckError& error) {
      EXPECT_EQ(error.code(), common::ErrorCode::kCorruptData) << label << ": " << error.what();
      ++threw;
    } catch (const std::exception& error) {
      ADD_FAILURE() << label << " threw a non-CheckError: " << error.what();
    }
  };
  for (std::size_t bit = 0; bit < 8 * payload.size(); ++bit) {
    run(flip_bit(payload, bit), "bit " + std::to_string(bit) + " flipped");
  }
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    run(payload.substr(0, cut), "cut at byte " + std::to_string(cut));
  }
  EXPECT_EQ(decoded + threw, cases);
  EXPECT_GT(threw, 0u);
  std::printf("%s sweep: %zu-byte payload, %zu cases, %zu decoded, %zu threw\n", name,
              payload.size(), cases, decoded, threw);
}

TEST(ServiceProtocol, BitFlippedOrTruncatedPayloadsDecodeOrThrowCorruptData) {
  expect_decodes_or_throws_corrupt("decode_request", encode_request(sample_request()),
                                   [](const std::string& p) { return decode_request(p); });
  expect_decodes_or_throws_corrupt("decode_response", encode_response(sample_response()),
                                   [](const std::string& p) { return decode_response(p); });
}

/// Every payload `reader` yields as kOk, in order, until it needs more bytes.
std::vector<std::string> drain(FrameReader& reader) {
  std::vector<std::string> payloads;
  std::string payload;
  // Each call that does not ask for more bytes consumes at least one, so a
  // correct reader returns before this bound runs out.
  for (std::size_t calls = reader.buffered_bytes() + 1; calls > 0; --calls) {
    const FrameStatus status = reader.next(payload);
    if (status == FrameStatus::kNeedMore) return payloads;
    if (status == FrameStatus::kOk) payloads.push_back(payload);
  }
  ADD_FAILURE() << "FrameReader::next stopped consuming bytes";
  return payloads;
}

TEST(ServiceProtocol, BitFlippedOrLengthLyingFramesNeverForgeAPayload) {
  // A damaged request frame followed by a valid sentinel frame: the damaged
  // frame must never come back kOk, whatever its payload.
  const std::string payload = encode_request(sample_request());
  const std::string frame = encode_frame(payload);
  const std::string sentinel_payload = "sentinel";
  const std::string sentinel = encode_frame(sentinel_payload);
  constexpr std::size_t kLengthBegin = 4;  // the u32 length follows the magic
  constexpr std::size_t kLengthEnd = 8;
  std::size_t lost_in_length = 0;
  for (std::size_t bit = 0; bit < 8 * frame.size(); ++bit) {
    FrameReader reader;
    reader.feed(flip_bit(frame, bit) + sentinel);
    const std::vector<std::string> payloads = drain(reader);
    for (const std::string& got : payloads) EXPECT_EQ(got, sentinel_payload) << "bit " << bit;
    const bool in_length = bit / 8 >= kLengthBegin && bit / 8 < kLengthEnd;
    if (in_length) {
      lost_in_length += payloads.empty() ? 1 : 0;
    } else {
      // The length prefix was intact, so the reader resynchronises at the
      // sentinel however the rest of the frame was damaged.
      EXPECT_EQ(payloads.size(), 1u) << "bit " << bit << " lost the sentinel";
    }
  }
  std::printf("frame sweep: %zu bit flips, sentinel lost in %zu length-prefix flips\n",
              8 * frame.size(), lost_in_length);

  const auto length = static_cast<std::uint32_t>(payload.size());
  for (const std::uint32_t lie : {0u, length - 1, length + 1, FrameReader::kMaxPayloadBytes,
                                  FrameReader::kMaxPayloadBytes + 1}) {
    std::string lying = frame;
    for (std::size_t i = 0; i < 4; ++i) {
      lying[kLengthBegin + i] = static_cast<char>((lie >> (8 * i)) & 0xff);
    }
    FrameReader reader;
    reader.feed(lying + sentinel);
    for (const std::string& got : drain(reader)) EXPECT_EQ(got, sentinel_payload) << "length " << lie;
  }
}

TEST(ServiceProtocol, FrameRoundTripAndSplitDelivery) {
  const std::string payload = encode_request(sample_request());
  const std::string frame = encode_frame(payload);
  FrameReader reader;
  // Deliver byte by byte: the reader must report kNeedMore until complete.
  std::string out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(std::string_view(frame).substr(i, 1));
    EXPECT_EQ(reader.next(out), FrameStatus::kNeedMore);
  }
  reader.feed(std::string_view(frame).substr(frame.size() - 1));
  ASSERT_EQ(reader.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(reader.next(out), FrameStatus::kNeedMore);
}

TEST(ServiceProtocol, DuplicatedFramesSplitBackIntoTwo) {
  const std::string frame = encode_frame("hello world");
  FrameReader reader;
  reader.feed(frame + frame);
  std::string out;
  ASSERT_EQ(reader.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, "hello world");
  ASSERT_EQ(reader.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, "hello world");
}

TEST(ServiceProtocol, BitFlipDetectedAndStreamResyncs) {
  const std::string good = encode_frame("payload one");
  std::string bad = encode_frame("payload two");
  bad[bad.size() - 3] ^= 0x40;  // flip a payload bit; checksum must catch it
  FrameReader reader;
  reader.feed(bad + good);
  std::string out;
  EXPECT_EQ(reader.next(out), FrameStatus::kCorrupt);
  ASSERT_EQ(reader.next(out), FrameStatus::kOk) << "stream failed to resync";
  EXPECT_EQ(out, "payload one");
}

TEST(ServiceProtocol, GarbagePrefixResyncsAtNextMagic) {
  const std::string good = encode_frame("after garbage");
  FrameReader reader;
  reader.feed("\x01\x02garbage bytes" + good);
  std::string out;
  EXPECT_EQ(reader.next(out), FrameStatus::kCorrupt);
  ASSERT_EQ(reader.next(out), FrameStatus::kOk);
  EXPECT_EQ(out, "after garbage");
}

TEST(ServiceProtocol, StatusMappings) {
  EXPECT_EQ(status_from_outcome(core::AllocationStatus::kOptimal), StatusCode::kOk);
  EXPECT_EQ(status_from_outcome(core::AllocationStatus::kDegraded), StatusCode::kDegraded);
  EXPECT_EQ(status_from_outcome(core::AllocationStatus::kFailed), StatusCode::kFailed);
  const common::CheckError bad_arg("x", common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(status_from_error(bad_arg), StatusCode::kInvalidArgument);
  const common::CheckError internal("x", common::ErrorCode::kBadState);
  EXPECT_EQ(status_from_error(internal), StatusCode::kInternalError);
  EXPECT_STREQ(to_string(StatusCode::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(MessageType::kUpdateDemand), "update_demand");
}

TEST(WireFault, DeterministicFromSeed) {
  WireFaultOptions options;
  options.seed = 1234;
  options.drop_probability = 0.2;
  options.duplicate_probability = 0.2;
  options.truncate_probability = 0.2;
  options.corrupt_probability = 0.2;
  const std::string frame = encode_frame("some payload");
  const auto run = [&] {
    WireFaultInjector injector(options);
    std::vector<std::string> out;
    double delay = 0.0;
    for (int i = 0; i < 200; ++i) out.push_back(injector.apply(frame, delay));
    return out;
  };
  EXPECT_EQ(run(), run()) << "same seed must replay the same fault schedule";
}

TEST(WireFault, EveryFaultKindFires) {
  WireFaultOptions options;
  options.seed = 99;
  options.drop_probability = 0.25;
  options.duplicate_probability = 0.25;
  options.truncate_probability = 0.25;
  options.corrupt_probability = 0.25;
  WireFaultInjector injector(options);
  const std::string frame = encode_frame("x");
  double delay = 0.0;
  for (int i = 0; i < 400; ++i) (void)injector.apply(frame, delay);
  const WireFaultStats& stats = injector.stats();
  EXPECT_EQ(stats.frames_seen, 400u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.truncated, 0u);
  EXPECT_GT(stats.corrupted, 0u);
}

TEST(MonotonicDeadline, ComposesAndExpires) {
  const common::Deadline never = common::Deadline::none();
  EXPECT_TRUE(never.is_none());
  EXPECT_FALSE(never.expired());

  const common::Deadline soon = common::Deadline::after(1000.0);
  EXPECT_FALSE(soon.expired());
  EXPECT_GT(soon.remaining(), 900.0);

  // earlier() picks the sooner instant; none() never wins.
  const common::Deadline later = common::Deadline::after(2000.0);
  EXPECT_LE(common::Deadline::earlier(soon, later).remaining(), soon.remaining() + 1.0);
  EXPECT_FALSE(common::Deadline::earlier(never, later).is_none());

  // Advance the test clock past the deadline: it must expire without any
  // wall-clock sleeping (the whole point of monotonic composition).
  common::advance_for_testing(1500.0);
  EXPECT_TRUE(soon.expired());
  EXPECT_FALSE(later.expired());
  EXPECT_EQ(soon.remaining(), 0.0);
  common::advance_for_testing(-1500.0);
}

}  // namespace
}  // namespace oef::service

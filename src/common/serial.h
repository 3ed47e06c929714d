// Minimal deterministic serialization for checkpoints and wire payloads.
//
// The daemon's crash-safety story needs byte-exact round-trips: a checkpoint
// written mid-churn and restored in a fresh process must reproduce the solver
// warm state bit-for-bit, or the "pivot-identical after restore" contract
// breaks. Doubles are therefore encoded as C hexfloats (%a), which round-trip
// exactly and are platform-independent for IEEE-754 binary64; integers as
// decimal; strings and blobs length-prefixed raw bytes.
//
// The format is a flat token stream with no schema: writer and reader must
// agree on the field order, and every versioned container (checkpoint file,
// protocol frame) carries its own magic + version + checksum around this
// payload. SerialReader throws common::CheckError with ErrorCode::kCorruptData
// on any malformed token, so a truncated or bit-flipped payload surfaces as a
// catchable boundary error, never as silent garbage.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace oef::common {

/// FNV-1a 64-bit hash; the integrity checksum for frames and checkpoints.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

class SerialWriter {
 public:
  void u64(std::uint64_t value);
  void f64(double value);
  void str(std::string_view value);

  void u64_vec(const std::vector<std::uint64_t>& values);
  void size_vec(const std::vector<std::size_t>& values);
  void f64_vec(const std::vector<double>& values);
  void byte_vec(const std::vector<char>& values);

  [[nodiscard]] const std::string& data() const { return buffer_; }
  [[nodiscard]] std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

class SerialReader {
 public:
  explicit SerialReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// A container's element count. Every element costs at least two bytes
  /// ("0\n"), so a count promising more than the remaining payload throws
  /// CheckError(kCorruptData) here: a corrupt count must not drive a large
  /// allocation before the element parse fails.
  [[nodiscard]] std::uint64_t count();

  [[nodiscard]] std::vector<std::uint64_t> u64_vec();
  [[nodiscard]] std::vector<std::size_t> size_vec();
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<char> byte_vec();

  /// True when only whitespace remains (tokens carry trailing delimiters).
  [[nodiscard]] bool at_end() const {
    for (std::size_t p = pos_; p < data_.size(); ++p) {
      if (data_[p] != '\n' && data_[p] != ' ') return false;
    }
    return true;
  }

 private:
  /// Next whitespace-delimited token; throws CheckError(kCorruptData) at end.
  [[nodiscard]] std::string_view token();

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace oef::common

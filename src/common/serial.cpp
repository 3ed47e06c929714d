#include "common/serial.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace oef::common {

namespace {

[[noreturn]] void corrupt(const char* what) {
  throw CheckError(std::string("serial: ") + what, ErrorCode::kCorruptData);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void SerialWriter::u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 "\n", value);
  buffer_ += buf;
}

void SerialWriter::f64(double value) {
  // Hexfloat: exact binary64 round-trip, no locale or precision pitfalls.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a\n", value);
  buffer_ += buf;
}

void SerialWriter::str(std::string_view value) {
  u64(value.size());
  buffer_.append(value.data(), value.size());
  buffer_ += '\n';
}

void SerialWriter::u64_vec(const std::vector<std::uint64_t>& values) {
  u64(values.size());
  for (const std::uint64_t v : values) u64(v);
}

void SerialWriter::size_vec(const std::vector<std::size_t>& values) {
  u64(values.size());
  for (const std::size_t v : values) u64(v);
}

void SerialWriter::f64_vec(const std::vector<double>& values) {
  u64(values.size());
  for (const double v : values) f64(v);
}

void SerialWriter::byte_vec(const std::vector<char>& values) {
  str(std::string_view(values.data(), values.size()));
}

std::string_view SerialReader::token() {
  while (pos_ < data_.size() && (data_[pos_] == '\n' || data_[pos_] == ' ')) ++pos_;
  if (pos_ >= data_.size()) corrupt("unexpected end of payload");
  const std::size_t begin = pos_;
  while (pos_ < data_.size() && data_[pos_] != '\n' && data_[pos_] != ' ') ++pos_;
  return data_.substr(begin, pos_ - begin);
}

std::uint64_t SerialReader::u64() {
  const std::string tok(token());
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end == tok.c_str() || *end != '\0') corrupt("bad u64 token");
  return value;
}

double SerialReader::f64() {
  const std::string tok(token());
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(tok.c_str(), &end);
  if (errno != 0 || end == tok.c_str() || *end != '\0') corrupt("bad f64 token");
  return value;
}

std::uint64_t SerialReader::count() {
  const std::uint64_t value = u64();
  if (value > (data_.size() - pos_ + 1) / 2) corrupt("container count exceeds payload");
  return value;
}

std::string SerialReader::str() {
  const std::uint64_t length = u64();
  // token() leaves pos_ on the delimiter after the length; step past it so
  // the raw bytes start cleanly.
  if (pos_ < data_.size() && (data_[pos_] == '\n' || data_[pos_] == ' ')) ++pos_;
  if (length > data_.size() - pos_) corrupt("string length exceeds payload");
  std::string out(data_.substr(pos_, length));
  pos_ += length;
  if (pos_ < data_.size() && data_[pos_] == '\n') ++pos_;
  return out;
}

std::vector<std::uint64_t> SerialReader::u64_vec() {
  const std::uint64_t size = count();
  std::vector<std::uint64_t> out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) out.push_back(u64());
  return out;
}

std::vector<std::size_t> SerialReader::size_vec() {
  const std::uint64_t size = count();
  std::vector<std::size_t> out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) out.push_back(static_cast<std::size_t>(u64()));
  return out;
}

std::vector<double> SerialReader::f64_vec() {
  const std::uint64_t size = count();
  std::vector<double> out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) out.push_back(f64());
  return out;
}

std::vector<char> SerialReader::byte_vec() {
  const std::string bytes = str();
  return {bytes.begin(), bytes.end()};
}

}  // namespace oef::common

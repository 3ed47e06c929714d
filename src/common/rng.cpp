#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/check.h"

namespace oef::common {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  OEF_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  OEF_CHECK(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t draw = next_u64();
  while (draw >= limit) draw = next_u64();
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  OEF_CHECK(rate > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

}  // namespace oef::common

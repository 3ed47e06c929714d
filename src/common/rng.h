// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository (trace generation, profiling
// error, tie-breaking) draws from an explicitly seeded Rng so that experiments
// and tests are reproducible bit-for-bit across runs and platforms. The
// generator is xoshiro256**, seeded through splitmix64 per the reference
// recommendation.
#pragma once

#include <cstdint>
#include <vector>

namespace oef::common {

/// splitmix64 step; used to expand a single seed into generator state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller.
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with the given parameters of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  [[nodiscard]] double exponential(double rate);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace oef::common

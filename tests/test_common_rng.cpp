#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace oef::common {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts) EXPECT_GT(c, 8000);  // roughly uniform
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t state2 = 0;
  EXPECT_EQ(splitmix64(state2), first);
}

}  // namespace
}  // namespace oef::common

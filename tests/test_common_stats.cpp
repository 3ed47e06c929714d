#include "common/stats.h"

#include <gtest/gtest.h>

namespace oef::common {
namespace {

TEST(Percentile, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, Interpolates) {
  // Sorted: 10, 20, 30, 40. p75 rank = 2.25 -> 30 + 0.25*10.
  EXPECT_DOUBLE_EQ(percentile({40.0, 10.0, 30.0, 20.0}, 75.0), 32.5);
}

TEST(Percentile, Extremes) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 100.0), 9.0);
}

}  // namespace
}  // namespace oef::common

// HyperLogLog sketches.
#include <gtest/gtest.h>

#include "nids/hll.h"
#include "util/rng.h"

namespace nwlb::nids {
namespace {

TEST(HyperLogLog, EmptyEstimatesZero) {
  const HyperLogLog hll(10);
  EXPECT_NEAR(hll.estimate(), 0.0, 1e-9);
  EXPECT_EQ(hll.memory_bytes(), 1024u);
}

TEST(HyperLogLog, SmallCountsAreExactish) {
  HyperLogLog hll(12);
  for (std::uint64_t i = 0; i < 50; ++i) hll.add(i * 7919);
  EXPECT_NEAR(hll.estimate(), 50.0, 3.0);
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 100; ++rep)
    for (std::uint64_t i = 0; i < 20; ++i) hll.add(i);
  EXPECT_NEAR(hll.estimate(), 20.0, 2.0);
}

class HllAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(HllAccuracy, WithinExpectedError) {
  const int n = GetParam();
  HyperLogLog hll(11);  // ~2.3% standard error.
  nwlb::util::Rng rng(static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i) hll.add(rng());
  const double error = std::abs(hll.estimate() - n) / n;
  EXPECT_LT(error, 0.10) << "n=" << n;  // 4+ sigma headroom.
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracy,
                         ::testing::Values(1000, 5000, 20000, 100000, 400000));

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a(10), b(10), u(10);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    a.add(i);
    u.add(i);
  }
  for (std::uint64_t i = 2000; i < 6000; ++i) {
    b.add(i);
    u.add(i);
  }
  a.merge(b);
  EXPECT_NEAR(a.estimate(), u.estimate(), 1e-9);  // Register-exact equality.
  HyperLogLog other(12);
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(HyperLogLog, PrecisionValidation) {
  EXPECT_THROW(HyperLogLog(3), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(17), std::invalid_argument);
  HyperLogLog hll(6);
  hll.add(1);
  hll.clear();
  EXPECT_NEAR(hll.estimate(), 0.0, 1e-9);
}

}  // namespace
}  // namespace nwlb::nids

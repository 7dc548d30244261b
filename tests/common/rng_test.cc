#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>

namespace gs {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitProducesIndependentChildren) {
  Rng root(7);
  Rng a = root.Split("alpha");
  Rng b = root.Split("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 30) == b.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitIsDeterministicGivenSeedAndOrder) {
  auto draw = [] {
    Rng root(99);
    Rng child = root.Split("tag");
    return child.UniformInt(0, 1 << 30);
  };
  EXPECT_EQ(draw(), draw());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformIntMatchesStdDistribution) {
  // UniformInt is the stream every seeded component draws from; it must stay
  // exactly std::uniform_int_distribution<std::int64_t> over mt19937_64.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // Range sizes 1, 2, 16, 26, 64, 1000, 2^32 + 1, negative lows, and the
  // full int64 span.
  const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
      {0, 0},   {0, 1},         {0, 15},       {0, 25}, {0, 63},
      {0, 999}, {0, 1LL << 32}, {-1000, 1000}, {-3, 7}, {kMin, kMax}};
  for (const auto& [lo, hi] : ranges) {
    Rng rng(21);
    std::mt19937_64 reference(21);
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::int64_t want = dist(reference);
      const std::int64_t got = rng.UniformInt(lo, hi);
      if (got != want) {
        FAIL() << "[" << lo << ", " << hi << "] draw " << i << ": " << got
               << " != " << want;
      }
    }
  }
}

TEST(RngTest, UniformIntRejectsEmptyRange) {
  Rng rng(5);
  EXPECT_THROW(rng.UniformInt(1, 0), CheckFailure);
}

TEST(RngTest, UniformRealBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-1.0));
    EXPECT_TRUE(rng.Bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, NormalMoments) {
  Rng rng(10);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, SamplesInRangeAndHeadHeavy) {
  const double exponent = GetParam();
  Rng rng(13);
  ZipfSampler zipf(100, exponent);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    std::size_t s = zipf.Sample(rng);
    ASSERT_LT(s, 100u);
    ++counts[s];
  }
  // Rank 0 must dominate rank 10 and rank 10 dominate rank 90.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.8, 1.0, 1.1, 1.5, 2.0));

TEST(ZipfTest, RatioMatchesLaw) {
  Rng rng(14);
  ZipfSampler zipf(1000, 1.0);
  int c0 = 0, c1 = 0;
  for (int i = 0; i < 100000; ++i) {
    std::size_t s = zipf.Sample(rng);
    if (s == 0) ++c0;
    if (s == 1) ++c1;
  }
  // P(0)/P(1) = 2 for exponent 1.
  EXPECT_NEAR(static_cast<double>(c0) / c1, 2.0, 0.4);
}

}  // namespace
}  // namespace gs

#include "data/partitioner.h"

#include <gtest/gtest.h>

#include <map>

#include "common/check.h"
#include "common/rng.h"

namespace gs {
namespace {

TEST(HashPartitionerTest, DeterministicAndInRange) {
  HashPartitioner p(8);
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key-" + std::to_string(i);
    int shard = p.ShardOf(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 8);
    EXPECT_EQ(shard, p.ShardOf(key));
  }
}

TEST(HashPartitionerTest, SaltChangesAssignment) {
  HashPartitioner a(16, 0), b(16, 1);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    std::string key = "k" + std::to_string(i);
    if (a.ShardOf(key) != b.ShardOf(key)) ++differing;
  }
  EXPECT_GT(differing, 100);
}

TEST(HashPartitionerTest, SingleShard) {
  HashPartitioner p(1);
  EXPECT_EQ(p.ShardOf("anything"), 0);
}

TEST(HashPartitionerTest, ZeroShardsThrows) {
  EXPECT_THROW(HashPartitioner(0), CheckFailure);
}

class HashBalanceTest : public ::testing::TestWithParam<int> {};

TEST_P(HashBalanceTest, ShardsAreBalanced) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  HashPartitioner p(8);
  std::vector<int> counts(8, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) {
    ++counts[p.ShardOf("key-" + std::to_string(rng.UniformInt(0, 1 << 30)))];
  }
  for (int c : counts) {
    EXPECT_GT(c, n / 8 / 2) << "shard underloaded";
    EXPECT_LT(c, n / 8 * 2) << "shard overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashBalanceTest, ::testing::Range(1, 9));

TEST(RangePartitionerTest, BoundariesSplitKeySpace) {
  RangePartitioner p({"b", "m"});
  EXPECT_EQ(p.num_shards(), 3);
  EXPECT_EQ(p.ShardOf("a"), 0);
  EXPECT_EQ(p.ShardOf("b"), 0);   // boundary key goes to the left shard
  EXPECT_EQ(p.ShardOf("ba"), 1);
  EXPECT_EQ(p.ShardOf("m"), 1);
  EXPECT_EQ(p.ShardOf("z"), 2);
}

TEST(RangePartitionerTest, ShardOrderMatchesKeyOrder) {
  RangePartitioner p({"d", "h", "p"});
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    std::string a(1, static_cast<char>('a' + rng.UniformInt(0, 25)));
    std::string b(1, static_cast<char>('a' + rng.UniformInt(0, 25)));
    if (a <= b) {
      EXPECT_LE(p.ShardOf(a), p.ShardOf(b))
          << a << " vs " << b << ": range shards must respect key order";
    }
  }
}

TEST(RangePartitionerTest, EmptyBoundariesIsSingleShard) {
  RangePartitioner p(std::vector<std::string>{});
  EXPECT_EQ(p.num_shards(), 1);
  EXPECT_EQ(p.ShardOf("anything"), 0);
}

TEST(RangePartitionerTest, UnsortedBoundariesThrow) {
  EXPECT_THROW(RangePartitioner({"m", "b"}), CheckFailure);
}

}  // namespace
}  // namespace gs

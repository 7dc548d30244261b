#include "storage/block_manager.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gs {
namespace {

RecordsPtr SomeRecords() {
  return MakeRecords({Record{"k1", std::int64_t{1}},
                      Record{"k2", std::string("value")}});
}

TEST(BlockIdTest, FactoriesAndEquality) {
  EXPECT_EQ(BlockId::Cached(3, 4), BlockId::Cached(3, 4));
  EXPECT_NE(BlockId::Cached(3, 4), BlockId::Cached(3, 5));
  EXPECT_NE(BlockId::Shuffle(3, 4, 0), BlockId::Cached(3, 4));
  EXPECT_NE(BlockId::Shuffle(1, 2, 3), BlockId::Shuffle(1, 3, 2));
}

TEST(BlockIdTest, HashDistinguishesKinds) {
  BlockIdHash h;
  EXPECT_NE(h(BlockId::Shuffle(1, 2, 0)), h(BlockId::Cached(1, 2)));
}

TEST(BlockIdTest, ToStringNamesKind) {
  EXPECT_EQ(BlockId::Shuffle(1, 2, 3).ToString(), "shuffle(1,2,3)");
  EXPECT_EQ(BlockId::Cached(0, 7).ToString(), "cached(0,7,0)");
}

TEST(BlockManagerTest, PutGetRoundTrip) {
  BlockManager bm(4);
  BlockId id = BlockId::Cached(1, 0);
  bm.Put(2, id, SomeRecords());
  EXPECT_TRUE(bm.Has(2, id));
  EXPECT_FALSE(bm.Has(1, id));
  auto block = bm.Get(2, id);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->records->size(), 2u);
  EXPECT_EQ(block->bytes, SerializedSize(*block->records));
}

TEST(BlockManagerTest, GetMissingReturnsNullopt) {
  BlockManager bm(2);
  EXPECT_FALSE(bm.Get(0, BlockId::Cached(9, 9)).has_value());
}

TEST(BlockManagerTest, PutWithExplicitSize) {
  BlockManager bm(2);
  bm.PutWithSize(0, BlockId::Shuffle(0, 0, 0), SomeRecords(), 12345);
  EXPECT_EQ(bm.Get(0, BlockId::Shuffle(0, 0, 0))->bytes, 12345);
}

TEST(BlockManagerTest, LocationsTrackAllHolders) {
  BlockManager bm(4);
  BlockId id = BlockId::Cached(5, 1);
  EXPECT_TRUE(bm.Locations(id).empty());
  bm.Put(1, id, SomeRecords());
  bm.Put(3, id, SomeRecords());
  auto locs = bm.Locations(id);
  EXPECT_EQ(locs, (std::vector<NodeIndex>{1, 3}));
}

TEST(BlockManagerTest, ReplacingOnSameNodeKeepsOneLocation) {
  BlockManager bm(2);
  BlockId id = BlockId::Shuffle(0, 0, 0);
  bm.Put(0, id, SomeRecords());
  bm.Put(0, id, SomeRecords());
  EXPECT_EQ(bm.Locations(id).size(), 1u);
}

TEST(BlockManagerTest, RemoveDropsLocation) {
  BlockManager bm(3);
  BlockId id = BlockId::Shuffle(0, 0, 0);
  bm.Put(0, id, SomeRecords());
  bm.Put(1, id, SomeRecords());
  bm.Remove(0, id);
  EXPECT_FALSE(bm.Has(0, id));
  EXPECT_EQ(bm.Locations(id), (std::vector<NodeIndex>{1}));
  bm.Remove(1, id);
  EXPECT_TRUE(bm.Locations(id).empty());
}

TEST(BlockManagerTest, DropShuffleOnNodeKeepsCachedBlocks) {
  BlockManager bm(2);
  bm.Put(0, BlockId::Shuffle(0, 0, 0), SomeRecords());
  bm.Put(0, BlockId::Cached(2, 0), SomeRecords());
  bm.Put(1, BlockId::Shuffle(0, 1, 0), SomeRecords());
  bm.DropShuffleOnNode(0);
  EXPECT_FALSE(bm.Has(0, BlockId::Shuffle(0, 0, 0)));
  EXPECT_TRUE(bm.Locations(BlockId::Shuffle(0, 0, 0)).empty());
  EXPECT_TRUE(bm.Has(0, BlockId::Cached(2, 0)));
  EXPECT_TRUE(bm.Has(1, BlockId::Shuffle(0, 1, 0)));
}

TEST(BlockManagerTest, OutOfRangeNodeThrows) {
  BlockManager bm(2);
  EXPECT_THROW(bm.Put(2, BlockId::Cached(0, 0), SomeRecords()), CheckFailure);
  EXPECT_THROW(bm.Get(-1, BlockId::Cached(0, 0)), CheckFailure);
}

}  // namespace
}  // namespace gs

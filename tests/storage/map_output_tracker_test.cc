#include "storage/map_output_tracker.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gs {
namespace {

class MapOutputTrackerTest : public ::testing::Test {
 protected:
  MapOutputTracker tracker_;
};

TEST_F(MapOutputTrackerTest, RegisterAndQuery) {
  tracker_.RegisterShuffle(0, 3, 2);
  EXPECT_TRUE(tracker_.HasShuffle(0));
  EXPECT_FALSE(tracker_.HasShuffle(1));
  EXPECT_EQ(tracker_.num_map_partitions(0), 3);
  EXPECT_EQ(tracker_.num_shards(0), 2);
  EXPECT_FALSE(tracker_.MapOutputRegistered(0, 2));

  tracker_.RegisterMapOutput(0, 0, /*node=*/4, {100, 200});
  tracker_.RegisterMapOutput(0, 1, /*node=*/5, {10, 20});
  EXPECT_FALSE(tracker_.MapOutputRegistered(0, 2));
  tracker_.RegisterMapOutput(0, 2, /*node=*/4, {1, 2});
  EXPECT_TRUE(tracker_.MapOutputRegistered(0, 2));

  EXPECT_EQ(tracker_.Output(0, 0, 1).node, 4);
  EXPECT_EQ(tracker_.Output(0, 0, 1).bytes, 200);
  EXPECT_EQ(tracker_.TotalBytes(0), 333);
}

TEST_F(MapOutputTrackerTest, RegisterShuffleIsIdempotent) {
  tracker_.RegisterShuffle(0, 3, 2);
  tracker_.RegisterShuffle(0, 3, 2);  // no-op
  EXPECT_THROW(tracker_.RegisterShuffle(0, 4, 2), CheckFailure);
  EXPECT_THROW(tracker_.RegisterShuffle(0, 3, 3), CheckFailure);
}

TEST_F(MapOutputTrackerTest, ReRegistrationOverwritesLocation) {
  // transferTo moves a map partition's output; the tracker must reflect
  // the receiver's node afterwards.
  tracker_.RegisterShuffle(0, 1, 2);
  tracker_.RegisterMapOutput(0, 0, 1, {50, 60});
  tracker_.RegisterMapOutput(0, 0, 9, {50, 60});
  EXPECT_EQ(tracker_.Output(0, 0, 0).node, 9);
  EXPECT_TRUE(tracker_.MapOutputRegistered(0, 0));
}

TEST_F(MapOutputTrackerTest, BytesPerNodeAndPerDc) {
  Topology topo;
  topo.AddDatacenter("a");
  topo.AddDatacenter("b");
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"a1", 0, 2, Gbps(1)});
  topo.AddNode({"b0", 1, 2, Gbps(1)});

  tracker_.RegisterShuffle(7, 2, 2);
  tracker_.RegisterMapOutput(7, 0, 0, {10, 20});
  tracker_.RegisterMapOutput(7, 1, 2, {30, 40});

  auto per_node = tracker_.BytesPerNode(7, 3);
  EXPECT_EQ(per_node, (std::vector<Bytes>{30, 0, 70}));
  auto per_dc = tracker_.BytesPerDc(7, topo);
  EXPECT_EQ(per_dc, (std::vector<Bytes>{30, 70}));
}

TEST_F(MapOutputTrackerTest, PreferredLocationsHonorThreshold) {
  tracker_.RegisterShuffle(1, 3, 1);
  tracker_.RegisterMapOutput(1, 0, 0, {80});  // 80% of shard 0
  tracker_.RegisterMapOutput(1, 1, 1, {15});
  tracker_.RegisterMapOutput(1, 2, 2, {5});
  auto prefs = tracker_.PreferredShardLocations(1, 0, 0.2);
  EXPECT_EQ(prefs, (std::vector<NodeIndex>{0}));
  prefs = tracker_.PreferredShardLocations(1, 0, 0.10);
  EXPECT_EQ(prefs, (std::vector<NodeIndex>{0, 1}));
  prefs = tracker_.PreferredShardLocations(1, 0, 0.01);
  EXPECT_EQ(prefs, (std::vector<NodeIndex>{0, 1, 2}));
}

TEST_F(MapOutputTrackerTest, PreferredLocationsEmptyShard) {
  tracker_.RegisterShuffle(2, 1, 1);
  tracker_.RegisterMapOutput(2, 0, 3, {0});
  EXPECT_TRUE(tracker_.PreferredShardLocations(2, 0, 0.2).empty());
}

TEST_F(MapOutputTrackerTest, UnknownShuffleThrows) {
  EXPECT_THROW(tracker_.num_shards(42), CheckFailure);
  EXPECT_THROW(tracker_.RegisterMapOutput(42, 0, 0, {1}), CheckFailure);
}

TEST_F(MapOutputTrackerTest, WrongShardCountThrows) {
  tracker_.RegisterShuffle(0, 1, 3);
  EXPECT_THROW(tracker_.RegisterMapOutput(0, 0, 0, {1, 2}), CheckFailure);
}

}  // namespace
}  // namespace gs

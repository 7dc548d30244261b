// Aggregating into a subset of k datacenters (Sec. III-C generalization).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "workloads/input_gen.h"

namespace gs {
namespace {

// One ranking arm: aggregator count, ordering, an optional pinned
// datacenter (AdaptiveConfig::pin_dc, the offline-oracle arm) and the seed
// the kRandom ordering draws from.
struct Arm {
  int k = 1;
  AggregatorPolicy policy = AggregatorPolicy::kLargestInput;
  DcIndex pin_dc = kNoDc;
  std::uint64_t seed = 8;
};

RunConfig Cfg(const Arm& arm) {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = arm.seed;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  cfg.aggregator_dc_count = arm.k;
  cfg.aggregator_policy = arm.policy;
  cfg.adaptive.pin_dc = arm.pin_dc;
  return cfg;
}

struct Outcome {
  std::vector<DcIndex> shuffle_dcs;  // datacenters holding shuffle bytes
  Bytes cross_dc = 0;
  std::vector<Record> result;
};

Outcome RunWith(const Arm& arm) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(arm));
  Rng rng(3);
  std::vector<Record> records =
      MakeKeyValueRecords(1200, 40, rng, kHexAlphabet, nullptr);
  std::vector<std::vector<Record>> parts(24);
  for (std::size_t i = 0; i < records.size(); ++i) {
    parts[i % 24].push_back(std::move(records[i]));
  }
  Dataset input = cluster.CreateSource(
      "in", PlacePartitions(cluster.topology(), std::move(parts),
                            DefaultDcWeights(6)));
  Outcome out;
  RunResult run = input.SortByKey(UniformBoundaries(8, kHexAlphabet))
                      .Run(ActionKind::kCollect);
  out.result = std::move(run.records);

  auto per_dc = cluster.tracker().BytesPerDc(0, cluster.topology());
  for (DcIndex dc = 0; dc < static_cast<DcIndex>(per_dc.size()); ++dc) {
    if (per_dc[dc] > 0) out.shuffle_dcs.push_back(dc);
  }
  out.cross_dc = run.metrics.cross_dc_bytes;
  return out;
}

TEST(SubsetAggregationTest, KOneAggregatesIntoSingleDc) {
  // Eq. 2: the largest input, dc 0 (see the ranking arms below).
  EXPECT_EQ(RunWith({.k = 1}).shuffle_dcs, (std::vector<DcIndex>{0}));
}

TEST(SubsetAggregationTest, KTwoUsesExactlyTwoDcs) {
  EXPECT_EQ(RunWith({.k = 2}).shuffle_dcs.size(), 2u);
}

TEST(SubsetAggregationTest, KFullSpreadKeepsDataEverywhere) {
  // k = num_datacenters approximates iShuffle-style spread shuffle-on-write:
  // partitions already anywhere stay put.
  EXPECT_EQ(RunWith({.k = 6}).shuffle_dcs.size(), 6u);
}

// The other ranking arms, pinned to the datacenter(s) they aggregate
// into. With DefaultDcWeights(6) dc 0 holds 9 of the 24 input partitions
// and dcs 1-5 hold 3 each, so ties among them keep index order.
TEST(SubsetAggregationTest, SmallestInputAggregatesIntoSmallestDc) {
  EXPECT_EQ(RunWith({.policy = AggregatorPolicy::kSmallestInput}).shuffle_dcs,
            (std::vector<DcIndex>{1}));
}

TEST(SubsetAggregationTest, SmallestInputKTwoTakesTheTwoSmallest) {
  EXPECT_EQ(RunWith({.k = 2, .policy = AggregatorPolicy::kSmallestInput})
                .shuffle_dcs,
            (std::vector<DcIndex>{1, 2}));
}

TEST(SubsetAggregationTest, RandomDrawsFromTheJobStream) {
  // One Rng::Shuffle of the ranking per choice, fixed by the seed; these
  // seeds pick neither the largest nor the smallest input.
  EXPECT_EQ(RunWith({.policy = AggregatorPolicy::kRandom, .seed = 1})
                .shuffle_dcs,
            (std::vector<DcIndex>{2}));
  EXPECT_EQ(RunWith({.policy = AggregatorPolicy::kRandom, .seed = 3})
                .shuffle_dcs,
            (std::vector<DcIndex>{5}));
}

TEST(SubsetAggregationTest, PinnedDcOverridesTheOrdering) {
  EXPECT_EQ(RunWith({.pin_dc = 4}).shuffle_dcs, (std::vector<DcIndex>{4}));
}

TEST(SubsetAggregationTest, ResultsIdenticalAcrossK) {
  auto sorted = [](std::vector<Record> r) { return r; };  // already sorted
  Outcome k1 = RunWith({.k = 1});
  Outcome k2 = RunWith({.k = 2});
  Outcome k6 = RunWith({.k = 6});
  EXPECT_EQ(sorted(k1.result), sorted(k2.result));
  EXPECT_EQ(sorted(k1.result), sorted(k6.result));
}

TEST(SubsetAggregationTest, PushTrafficShrinksWithMoreAggregators) {
  // More aggregator datacenters = more partitions already "home" = fewer
  // pushed bytes (Eq. 2 generalizes: D >= S - sum of the subset's shares)
  // — but the later reduce then fetches across the subset, so the paper
  // prefers k = 1. Verify the push-side monotonicity.
  auto push_bytes = [](int k) {
    GeoCluster c(Ec2SixRegionTopology(100), Cfg({.k = k}));
    Rng rng(3);
    std::vector<Record> records =
        MakeKeyValueRecords(1200, 40, rng, kHexAlphabet, nullptr);
    std::vector<std::vector<Record>> parts(24);
    for (std::size_t i = 0; i < records.size(); ++i) {
      parts[i % 24].push_back(std::move(records[i]));
    }
    Dataset input = c.CreateSource(
        "in", PlacePartitions(c.topology(), std::move(parts),
                              DefaultDcWeights(6)));
    return input.SortByKey(UniformBoundaries(8, kHexAlphabet))
        .Run(ActionKind::kSave)
        .metrics.cross_dc_push_bytes;
  };
  EXPECT_LT(push_bytes(6), push_bytes(1));
}

TEST(SubsetAggregationTest, OversizedKClampsToClusterSize) {
  RunConfig cfg = Cfg({.k = 99});
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  std::vector<Record> records{{"a", std::int64_t{1}}, {"b", std::int64_t{2}}};
  EXPECT_NO_THROW(
      (void)cluster.Parallelize("d", records).ReduceByKey(SumInt64(), 4)
          .Collect());
}

}  // namespace
}  // namespace gs

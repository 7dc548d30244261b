// Regression: StageInputPerDc's "counting 0 bytes" fallbacks (a cached
// partition with no live replica, or a replica whose block vanished) used
// to be silent — the aggregator choice quietly planned on a zero-byte
// matrix. They must surface in engine.placement_misses and the RunReport.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "storage/block.h"

namespace gs {
namespace {

RunConfig QuietConfig(Scheme scheme) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 2;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  return cfg;
}

std::vector<Record> SomeRecords(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({"key" + std::to_string(i % 23), std::int64_t{1}});
  }
  return records;
}

TEST(PlacementMissTest, DeadCachedReplicaCountsAMiss) {
  // Cache a dataset, then take every executor holding one of its
  // partitions down *without* dropping its block registrations (a
  // transient outage: the locations linger, the nodes cannot serve). The
  // aggregator choice finds no live replica for that partition and must
  // say so in the metrics instead of silently counting 0 bytes.
  GeoCluster cluster(Ec2SixRegionTopology(100),
                     QuietConfig(Scheme::kAggShuffle));
  Dataset data = cluster.Parallelize("data", SomeRecords(400), 1);
  Dataset cached = data.Map("id", [](const Record& r) { return r; }).Cache();
  const RddId cached_id = cached.rdd()->id();
  RunResult first = cached.ReduceByKey(SumInt64(), 4).Run(ActionKind::kCollect);
  EXPECT_EQ(first.metrics.placement_misses, 0)
      << "healthy cluster: no placement misses expected";

  const std::vector<NodeIndex> holders =
      cluster.blocks().Locations(BlockId::Cached(cached_id, 0));
  ASSERT_FALSE(holders.empty());
  for (NodeIndex n : holders) cluster.scheduler().SetNodeDown(n);

  RunResult second =
      cached.ReduceByKey(SumInt64(), 4).Run(ActionKind::kCollect);
  EXPECT_GT(second.metrics.placement_misses, 0)
      << "a cached partition with every replica down must count a miss";

  // The miss surfaces in the registry snapshot and the report JSON.
  bool counter_seen = false;
  for (const MetricSnapshot& m : second.report.metrics) {
    if (m.name == "engine.placement_misses") {
      counter_seen = true;
      EXPECT_EQ(m.value, second.metrics.placement_misses);
    }
  }
  EXPECT_TRUE(counter_seen);
  EXPECT_NE(second.report.ToJson().find(
                "\"placement_misses\":" +
                std::to_string(second.metrics.placement_misses)),
            std::string::npos);

  // The job still completes with the right answer — the miss only means
  // the placement decision had to plan blind for that partition.
  EXPECT_EQ(second.records.size(), first.records.size());
}

}  // namespace
}  // namespace gs

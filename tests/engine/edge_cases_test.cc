// Engine edge cases: unusual graph shapes, determinism, repeated runs,
// and scheme-specific corner behaviours.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "workloads/input_gen.h"

namespace gs {
namespace {

RunConfig Cfg(Scheme scheme, std::uint64_t seed = 7) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.cost = CostModel{}.Scaled(100);
  return cfg;
}

std::vector<Record> Keyed(int n, int keys) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({"k" + std::to_string(i % keys), std::int64_t{1}});
  }
  return records;
}

TEST(EdgeCaseTest, SamePipelineIsFullyDeterministicPerSeed) {
  auto run = [] {
    GeoCluster cluster(Ec2SixRegionTopology(100),
                       Cfg(Scheme::kAggShuffle, 99));
    RunResult run = cluster.Parallelize("d", Keyed(500, 41), 2)
                        .ReduceByKey(SumInt64(), 8)
                        .Run(ActionKind::kCollect);
    return std::make_pair(std::move(run.records), run.metrics.jct());
  };
  auto [r1, jct1] = run();
  auto [r2, jct2] = run();
  EXPECT_EQ(r1, r2);
  EXPECT_DOUBLE_EQ(jct1, jct2) << "simulation must be bit-deterministic";
}

TEST(EdgeCaseTest, DifferentSeedsChangeTimingNotResults) {
  auto run = [](std::uint64_t seed) {
    GeoCluster cluster(Ec2SixRegionTopology(100),
                       Cfg(Scheme::kSpark, seed));
    RunResult run = cluster.Parallelize("d", Keyed(500, 41), 2)
                        .ReduceByKey(SumInt64(), 8)
                        .Run(ActionKind::kCollect);
    std::vector<Record> result = std::move(run.records);
    std::sort(result.begin(), result.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    return std::make_pair(result, run.metrics.jct());
  };
  auto [r1, jct1] = run(1);
  auto [r2, jct2] = run(2);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(jct1, jct2);
}

TEST(EdgeCaseTest, UnionOfTwoShuffleOutputs) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  Dataset a = cluster.Parallelize("a", Keyed(200, 11), 1)
                  .ReduceByKey(SumInt64(), 4);
  Dataset b = cluster.Parallelize("b", Keyed(100, 7), 1)
                  .ReduceByKey(SumInt64(), 4);
  auto result = a.Union(b).Collect();
  EXPECT_EQ(result.size(), 11u + 7u);
}

TEST(EdgeCaseTest, ShuffleDirectlyOverSourceWithoutMap) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  auto result = cluster.Parallelize("d", Keyed(300, 5), 2)
                    .ReduceByKey(SumInt64(), 2)
                    .Collect();
  ASSERT_EQ(result.size(), 5u);
  for (const Record& r : result) {
    EXPECT_EQ(std::get<std::int64_t>(r.value), 60);
  }
}

TEST(EdgeCaseTest, SingleRecordDataset) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kCentralized));
  std::vector<Record> one{{"only", std::int64_t{42}}};
  auto result =
      cluster.Parallelize("one", one).ReduceByKey(SumInt64(), 8).Collect();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result[0].value), 42);
}

TEST(EdgeCaseTest, EmptyPartitionsAreHandled) {
  // 3 records over 24+ partitions: most partitions are empty.
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  auto result = cluster.Parallelize("sparse", Keyed(3, 3), 2)
                    .ReduceByKey(SumInt64(), 8)
                    .Collect();
  EXPECT_EQ(result.size(), 3u);
}

TEST(EdgeCaseTest, FilterToEmptyDataset) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kSpark));
  auto result = cluster.Parallelize("d", Keyed(100, 5), 1)
                    .Filter("none", [](const Record&) { return false; })
                    .ReduceByKey(SumInt64(), 4)
                    .Collect();
  EXPECT_TRUE(result.empty());
}

TEST(EdgeCaseTest, CentralizedRelocatesOnlyOnce) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kCentralized));
  Dataset data = cluster.Parallelize("d", Keyed(400, 17), 2);
  (void)data.ReduceByKey(SumInt64(), 8).Collect();
  Bytes first =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kCentralize);
  EXPECT_GT(first, 0);
  (void)data.ReduceByKey(SumInt64(), 8).Collect();
  Bytes second =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kCentralize);
  EXPECT_EQ(first, second) << "input must not be re-centralized";
}

TEST(EdgeCaseTest, ExplicitTransferChainedThroughMap) {
  // transferTo -> map -> (auto transferTo) -> shuffle: the stage in the
  // middle both receives and produces a transfer.
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  auto result = cluster.Parallelize("d", Keyed(300, 13), 2)
                    .TransferTo(2)
                    .Map("tag", [](const Record& r) { return r; })
                    .ReduceByKey(SumInt64(), 4)
                    .Collect();
  EXPECT_EQ(result.size(), 13u);
}

TEST(EdgeCaseTest, ZeroFailureProbabilityNeverFails) {
  RunConfig cfg = Cfg(Scheme::kSpark);
  cfg.fault.reduce_failure_prob = 0.0;
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  RunResult run = cluster.Parallelize("d", Keyed(300, 9), 1)
                      .ReduceByKey(SumInt64(), 8)
                      .Run(ActionKind::kCollect);
  EXPECT_EQ(run.metrics.task_failures, 0);
}

TEST(EdgeCaseTest, GroupByKeyUnderAggShuffle) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  std::vector<Record> events;
  for (int i = 0; i < 120; ++i) {
    events.push_back({"u" + std::to_string(i % 8),
                      "event-" + std::to_string(i)});
  }
  auto result =
      cluster.Parallelize("events", events).GroupByKey(4).Collect();
  ASSERT_EQ(result.size(), 8u);
  std::size_t total = 0;
  for (const Record& r : result) {
    total += std::get<std::vector<std::string>>(r.value).size();
  }
  EXPECT_EQ(total, 120u);
}

TEST(EdgeCaseTest, ManySmallJobsOnOneCluster) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(Scheme::kAggShuffle));
  Dataset data = cluster.Parallelize("d", Keyed(200, 10), 1);
  for (int i = 0; i < 5; ++i) {
    auto result = data.ReduceByKey(SumInt64(), 4).Collect();
    EXPECT_EQ(result.size(), 10u) << "job " << i;
  }
}

}  // namespace
}  // namespace gs

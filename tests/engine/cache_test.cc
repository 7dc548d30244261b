// cache(): computed once, reread from memory by later jobs (Sec. IV-E
// discusses caching aggregated datasets to avoid repeated WAN transfers).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "engine/cluster.h"
#include "engine/dataset.h"

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

TEST(CacheTest, CachedBlocksAppearAfterFirstAction) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  Dataset data = cluster.Parallelize("data", SomeRecords(200), 1);
  Dataset mapped = data.Map("id", [](const Record& r) { return r; }).Cache();
  RddId cached_id = mapped.rdd()->id();
  (void)mapped.Collect();
  int cached_partitions = 0;
  for (int p = 0; p < mapped.num_partitions(); ++p) {
    if (!cluster.blocks().Locations(BlockId::Cached(cached_id, p)).empty()) {
      ++cached_partitions;
    }
  }
  EXPECT_EQ(cached_partitions, mapped.num_partitions());
}

TEST(CacheTest, SecondActionIsFasterAndCorrect) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  Dataset data = cluster.Parallelize("data", SomeRecords(300), 2);
  // Atomic: the two partitions' map tasks run concurrently in the pool.
  std::atomic<int> evaluations{0};
  Dataset expensive =
      data.MapPartitions("count-evals",
                         [&evaluations](int, const std::vector<Record>& in) {
                           ++evaluations;
                           return in;
                         })
          .Cache();
  auto first = expensive.Collect();
  const int evals_after_first = evaluations.load();
  auto second = expensive.Collect();
  EXPECT_EQ(first, second);
  EXPECT_EQ(evaluations.load(), evals_after_first)
      << "cached partitions must not be recomputed";
}

TEST(CacheTest, CachedShuffleOutputSkipsReshuffle) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  Dataset data = cluster.Parallelize("data", SomeRecords(300), 2);
  Dataset counts = data.ReduceByKey(SumInt64(), 4).Cache();
  (void)counts.Collect();
  Bytes fetch_after_first =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kShuffleFetch);
  (void)counts.Collect();
  Bytes fetch_after_second =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kShuffleFetch);
  EXPECT_EQ(fetch_after_first, fetch_after_second)
      << "the second job must read the cached reduce output, not re-fetch";
}

TEST(CacheTest, DownstreamJobsUseCachedCut) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  Dataset data = cluster.Parallelize("data", SomeRecords(100), 1);
  Dataset cached = data.Map("id", [](const Record& r) { return r; }).Cache();
  (void)cached.Count();
  // A new job built on top of the cached dataset computes correct results.
  auto filtered = cached.Filter("key0", [](const Record& r) {
    return r.key == "key0";
  });
  auto result = filtered.Collect();
  for (const Record& r : result) EXPECT_EQ(r.key, "key0");
  EXPECT_FALSE(result.empty());
}

TEST(CacheTest, WorksUnderAggShuffleRewrite) {
  // The rewrite memo must keep cached identities stable across actions.
  GeoCluster cluster(Ec2SixRegionTopology(100),
                     QuietConfig(Scheme::kAggShuffle));
  Dataset data = cluster.Parallelize("data", SomeRecords(300), 2);
  Dataset counts = data.ReduceByKey(SumInt64(), 4).Cache();
  auto first = counts.Collect();
  Bytes push_after_first =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kShufflePush);
  auto second = counts.Collect();
  Bytes push_after_second =
      cluster.network().meter().cross_dc_of_kind(FlowKind::kShufflePush);
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(push_after_first, push_after_second)
      << "cached aggregated data must not be pushed again (Sec. IV-E)";
}

// A dataset cached inside a receiver stage (transferTo, then a narrow
// op). A later job that shuffles it finds every partition of that stage
// cached, so the stage runs standalone — a normal stage gathering from the
// cache — while its producer is pruned: nothing is pushed again.
TEST(CacheTest, CachedReceiverStageRunsStandalone) {
  const auto twice = [](const Record& r) {
    return Record{r.key, std::get<std::int64_t>(r.value) * 2};
  };
  const auto by_key = [](const Record& x, const Record& y) {
    return x.key < y.key;
  };
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  Dataset received = cluster.Parallelize("data", SomeRecords(300), 2)
                         .TransferTo(3)
                         .Map("twice", twice)
                         .Cache();
  (void)received.Collect();
  const Bytes pushed =
      cluster.network().meter().total_of_kind(FlowKind::kShufflePush);
  ASSERT_GT(pushed, 0);
  std::vector<Record> cached = received.ReduceByKey(SumInt64(), 4).Collect();
  EXPECT_EQ(cluster.network().meter().total_of_kind(FlowKind::kShufflePush),
            pushed)
      << "the cached receiver stage must not be paired and pushed again";

  GeoCluster fresh(Ec2SixRegionTopology(100), QuietConfig(Scheme::kSpark));
  std::vector<Record> uncached = fresh.Parallelize("data", SomeRecords(300), 2)
                                     .TransferTo(3)
                                     .Map("twice", twice)
                                     .ReduceByKey(SumInt64(), 4)
                                     .Collect();
  std::sort(cached.begin(), cached.end(), by_key);
  std::sort(uncached.begin(), uncached.end(), by_key);
  EXPECT_EQ(cached, uncached);
}

}  // namespace
}  // namespace gs

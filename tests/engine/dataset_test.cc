// Dataset API tests: every public transformation and action produces
// correct results when executed end-to-end on the simulated cluster.
#include "engine/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/check.h"
#include "engine/cluster.h"
#include "workloads/input_gen.h"

namespace gs {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  DatasetTest() : cluster_(Ec2SixRegionTopology(100), Config()) {}

  static RunConfig Config() {
    RunConfig cfg;
    cfg.scheme = Scheme::kSpark;
    cfg.seed = 1;
    cfg.cost = CostModel{}.Scaled(100);
    return cfg;
  }

  Dataset Numbers(int count, int partitions_per_dc = 1) {
    std::vector<Record> records;
    for (int i = 0; i < count; ++i) {
      records.push_back({"k" + std::to_string(i), std::int64_t{i}});
    }
    return cluster_.Parallelize("numbers", records, partitions_per_dc);
  }

  GeoCluster cluster_;
};

TEST_F(DatasetTest, CollectReturnsAllRecords) {
  auto result = Numbers(50).Collect();
  EXPECT_EQ(result.size(), 50u);
  std::int64_t sum = 0;
  for (const Record& r : result) sum += std::get<std::int64_t>(r.value);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST_F(DatasetTest, MapTransformsEveryRecord) {
  auto result = Numbers(20)
                    .Map("triple",
                         [](const Record& r) {
                           return Record{
                               r.key, std::get<std::int64_t>(r.value) * 3};
                         })
                    .Collect();
  std::int64_t sum = 0;
  for (const Record& r : result) sum += std::get<std::int64_t>(r.value);
  EXPECT_EQ(sum, 3 * 19 * 20 / 2);
}

TEST_F(DatasetTest, FilterKeepsMatching) {
  auto result = Numbers(30)
                    .Filter("evens",
                            [](const Record& r) {
                              return std::get<std::int64_t>(r.value) % 2 == 0;
                            })
                    .Collect();
  EXPECT_EQ(result.size(), 15u);
}

TEST_F(DatasetTest, FlatMapExpands) {
  auto result = Numbers(10)
                    .FlatMap("dup",
                             [](const Record& r) {
                               return std::vector<Record>{r, r, r};
                             })
                    .Collect();
  EXPECT_EQ(result.size(), 30u);
}

TEST_F(DatasetTest, UnionConcatenates) {
  auto a = Numbers(10);
  auto b = Numbers(5);
  EXPECT_EQ(a.Union(b).Collect().size(), 15u);
}

TEST_F(DatasetTest, ReduceByKeySums) {
  std::vector<Record> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back({"g" + std::to_string(i % 7), std::int64_t{1}});
  }
  auto result = cluster_.Parallelize("grouped", records)
                    .ReduceByKey(SumInt64(), 4)
                    .Collect();
  ASSERT_EQ(result.size(), 7u);
  std::int64_t total = 0;
  for (const Record& r : result) total += std::get<std::int64_t>(r.value);
  EXPECT_EQ(total, 100);
}

TEST_F(DatasetTest, ReduceByKeyWithoutMapSideCombine) {
  RunConfig cfg = Config();
  cfg.disable_map_side_combine = true;
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  std::vector<Record> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back({"g" + std::to_string(i % 3), std::int64_t{2}});
  }
  auto result = cluster.Parallelize("grouped", records)
                    .ReduceByKey(SumInt64(), 4)
                    .Collect();
  ASSERT_EQ(result.size(), 3u);
  for (const Record& r : result) {
    EXPECT_EQ(std::get<std::int64_t>(r.value), 40);
  }
}

TEST_F(DatasetTest, GroupByKeyGathersValues) {
  std::vector<Record> records{{"a", std::string("1")},
                              {"b", std::string("2")},
                              {"a", std::string("3")}};
  auto result =
      cluster_.Parallelize("kv", records).GroupByKey(2).Collect();
  std::map<std::string, std::size_t> sizes;
  for (const Record& r : result) {
    sizes[r.key] = std::get<std::vector<std::string>>(r.value).size();
  }
  EXPECT_EQ(sizes["a"], 2u);
  EXPECT_EQ(sizes["b"], 1u);
}

TEST_F(DatasetTest, SortByKeyYieldsGloballySortedOutput) {
  Rng rng(5);
  std::vector<Record> records =
      MakeKeyValueRecords(500, 20, rng, kHexAlphabet, nullptr);
  auto result = cluster_.Parallelize("sortme", records)
                    .SortByKey(UniformBoundaries(8, kHexAlphabet))
                    .Collect();
  ASSERT_EQ(result.size(), 500u);
  // Result concatenates shards in shard order; within and across shards
  // keys must be non-decreasing.
  for (std::size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].key, result[i].key) << "at index " << i;
  }
}

TEST_F(DatasetTest, CountMatchesCollectSize) {
  auto data = Numbers(123);
  EXPECT_EQ(data.Count(), 123);
}

TEST_F(DatasetTest, SaveReportsMetrics) {
  RunResult run = Numbers(50).Run(ActionKind::kSave);
  EXPECT_GT(run.metrics.jct(), 0);
  EXPECT_GE(run.metrics.stages.size(), 1u);
}

TEST_F(DatasetTest, ChainedTransformations) {
  auto result = Numbers(100)
                    .Filter("small",
                            [](const Record& r) {
                              return std::get<std::int64_t>(r.value) < 50;
                            })
                    .Map("bucket",
                         [](const Record& r) {
                           return Record{
                               std::to_string(
                                   std::get<std::int64_t>(r.value) % 5),
                               std::int64_t{1}};
                         })
                    .ReduceByKey(SumInt64(), 4)
                    .Collect();
  ASSERT_EQ(result.size(), 5u);
  for (const Record& r : result) {
    EXPECT_EQ(std::get<std::int64_t>(r.value), 10);
  }
}

TEST_F(DatasetTest, MultipleActionsOnSameCluster) {
  auto data = Numbers(40);
  EXPECT_EQ(data.Collect().size(), 40u);
  EXPECT_EQ(data.Count(), 40);
  auto mapped = data.Map("id", [](const Record& r) { return r; });
  EXPECT_EQ(mapped.Collect().size(), 40u);
}

TEST_F(DatasetTest, TransferToValidatesDatacenter) {
  auto data = Numbers(10);
  EXPECT_NO_THROW(data.TransferTo(3));
  EXPECT_NO_THROW(data.TransferTo(kNoDc));
  EXPECT_THROW(data.TransferTo(99), CheckFailure);
}

TEST_F(DatasetTest, SortedKeysStableUnderSchemes) {
  // The same sort produces identical output under AggShuffle.
  Rng rng(5);
  std::vector<Record> records =
      MakeKeyValueRecords(200, 10, rng, kHexAlphabet, nullptr);
  auto spark_sorted = cluster_.Parallelize("s", records)
                          .SortByKey(UniformBoundaries(4, kHexAlphabet))
                          .Collect();

  RunConfig cfg = Config();
  cfg.scheme = Scheme::kAggShuffle;
  GeoCluster agg_cluster(Ec2SixRegionTopology(100), cfg);
  auto agg_sorted = agg_cluster.Parallelize("s", records)
                        .SortByKey(UniformBoundaries(4, kHexAlphabet))
                        .Collect();
  EXPECT_EQ(spark_sorted, agg_sorted);
}

}  // namespace
}  // namespace gs

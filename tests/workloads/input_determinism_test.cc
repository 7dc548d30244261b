// Workload inputs are generated partition by partition on the compute pool.
// The source partitions of every workload must be byte-identical at any
// pool width and across reruns, keep the record counts of the ceil(n/parts)
// split, and come from distinct per-partition streams.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "workloads/hibench.h"
#include "workloads/input_gen.h"

namespace gs {
namespace {

constexpr double kScale = 1000;
constexpr int kParts = 12;

struct SourcePartition {
  std::size_t records = 0;
  NodeIndex node = kNoNode;
  std::uint64_t digest = 0;

  bool operator==(const SourcePartition&) const = default;
};

const SourceRdd* FindSource(const RddPtr& rdd) {
  if (auto* src = dynamic_cast<const SourceRdd*>(rdd.get())) return src;
  for (const RddPtr& parent : rdd->parents()) {
    if (const SourceRdd* src = FindSource(parent)) return src;
  }
  return nullptr;
}

std::vector<SourcePartition> BuildSource(const std::string& name,
                                         int threads) {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 5;
  cfg.scale = kScale;
  cfg.cost = CostModel{}.Scaled(kScale);
  cfg.compute_threads = threads;
  GeoCluster cluster(Ec2SixRegionTopology(kScale), cfg);
  WorkloadParams params;
  params.scale = kScale;
  params.map_partitions = kParts;
  Dataset job = MakeWorkload(name, params)->Build(cluster, /*data_seed=*/42);
  const SourceRdd* src = FindSource(job.rdd());
  EXPECT_NE(src, nullptr) << name;
  std::vector<SourcePartition> out;
  if (src == nullptr) return out;
  for (int p = 0; p < src->num_partitions(); ++p) {
    const SourceRdd::Partition& part = src->partition(p);
    std::uint64_t h = kFnvOffsetBasis;
    for (const Record& r : *part.records) h = Fnv1a64(ToString(r), h);
    out.push_back(SourcePartition{part.records->size(), part.node, h});
  }
  return out;
}

// Record count of chunk `p` when the old generator split one sequential
// record vector of `n` records into `parts` chunks.
std::size_t ChunkRecords(std::size_t n, int parts, int p) {
  const std::size_t per = (n + parts - 1) / parts;
  const std::size_t begin = p * per;
  const std::size_t end = std::min(n, begin + per);
  return begin < end ? end - begin : 0;
}

// Table I record totals at kScale; WordCount's partitions are sized in
// bytes instead.
std::size_t TotalRecords(const std::string& name) {
  if (name == "Sort") {
    return static_cast<std::size_t>(static_cast<Bytes>(MiB(320) / kScale) /
                                    116);
  }
  if (name == "TeraSort") return static_cast<std::size_t>(32e6 / kScale);
  if (name == "PageRank") return static_cast<std::size_t>(500000 / kScale);
  if (name == "NaiveBayes") return static_cast<std::size_t>(100000 / kScale);
  return 0;
}

class InputDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InputDeterminismTest, SourceIdenticalAcrossThreadsAndReruns) {
  const auto one = BuildSource(GetParam(), 1);
  ASSERT_EQ(one.size(), static_cast<std::size_t>(kParts));
  EXPECT_EQ(one, BuildSource(GetParam(), 4));
  EXPECT_EQ(one, BuildSource(GetParam(), 4));
}

TEST_P(InputDeterminismTest, PartitionsKeepChunkSizesAndDiffer) {
  const auto parts = BuildSource(GetParam(), 4);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(kParts));
  const std::size_t total = TotalRecords(GetParam());
  std::set<std::uint64_t> digests;
  for (int p = 0; p < kParts; ++p) {
    EXPECT_GT(parts[p].records, 0u) << "partition " << p;
    if (total > 0) {
      EXPECT_EQ(parts[p].records, ChunkRecords(total, kParts, p))
          << "partition " << p;
    }
    digests.insert(parts[p].digest);
  }
  EXPECT_EQ(digests.size(), parts.size()) << "two partitions are identical";
}

INSTANTIATE_TEST_SUITE_P(HiBench, InputDeterminismTest,
                         ::testing::ValuesIn(AllWorkloadNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace gs

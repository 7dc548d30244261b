// End-to-end workload correctness: each HiBench workload computes the same
// results under Spark, Centralized and AggShuffle — the shuffle mechanism
// must never change semantics, only placement and timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string_view>

#include "common/hash.h"
#include "workloads/hibench.h"

namespace gs {
namespace {

// Tiny scale so the full matrix stays fast.
constexpr double kTestScale = 2000;

RunConfig TestConfig(Scheme scheme) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 5;
  cfg.scale = kTestScale;
  cfg.cost = CostModel{}.Scaled(kTestScale);
  return cfg;
}

WorkloadParams TestParams() {
  WorkloadParams params;
  params.scale = kTestScale;
  params.map_partitions = 12;
  params.reduce_tasks = 4;
  params.collect_results = true;
  return params;
}

std::vector<Record> SortedRecords(std::vector<Record> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  return records;
}

RunResult RunWorkload(const std::string& name, Scheme scheme) {
  GeoCluster cluster(Ec2SixRegionTopology(kTestScale), TestConfig(scheme));
  auto wl = MakeWorkload(name, TestParams());
  return wl->Run(cluster, /*data_seed=*/42);
}

class WorkloadEquivalenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadEquivalenceTest, AllSchemesProduceIdenticalResults) {
  auto spark = SortedRecords(RunWorkload(GetParam(), Scheme::kSpark).records);
  auto centralized =
      SortedRecords(RunWorkload(GetParam(), Scheme::kCentralized).records);
  auto agg =
      SortedRecords(RunWorkload(GetParam(), Scheme::kAggShuffle).records);
  ASSERT_FALSE(spark.empty());
  EXPECT_EQ(spark, centralized);
  EXPECT_EQ(spark, agg);
}

INSTANTIATE_TEST_SUITE_P(HiBench, WorkloadEquivalenceTest,
                         ::testing::ValuesIn(AllWorkloadNames()),
                         [](const auto& info) { return info.param; });

// FNV-1a digest of key-sorted records: every key, every value's variant
// index, every int64 and every double's bits, and every term string.
std::uint64_t RecordsDigest(const std::vector<Record>& records) {
  std::uint64_t h = kFnvOffsetBasis;
  auto mix_bytes = [&h](const void* p, std::size_t n) {
    h = Fnv1a64(std::string_view(static_cast<const char*>(p), n), h);
  };
  auto mix_word = [&mix_bytes](auto x) {
    std::uint64_t bits = 0;
    static_assert(sizeof x == sizeof bits);
    std::memcpy(&bits, &x, sizeof bits);
    mix_bytes(&bits, sizeof bits);
  };
  auto mix_string = [&](const std::string& s) {
    mix_word(static_cast<std::uint64_t>(s.size()));
    mix_bytes(s.data(), s.size());
  };
  for (const Record& r : SortedRecords(records)) {
    mix_string(r.key);
    mix_word(static_cast<std::uint64_t>(r.value.index()));
    if (const auto* i = std::get_if<std::int64_t>(&r.value)) {
      mix_word(*i);
    } else if (const auto* d = std::get_if<double>(&r.value)) {
      mix_word(*d);
    } else if (const auto* v = std::get_if<std::vector<TermWeight>>(&r.value)) {
      mix_word(static_cast<std::uint64_t>(v->size()));
      for (const auto& [term, weight] : *v) {
        mix_string(term);
        mix_word(weight);
      }
    } else {
      ADD_FAILURE() << "unexpected value type in " << ToString(r);
    }
  }
  return h;
}

// Pins the collected output of the three ReduceByKey workloads bit for bit
// under every scheme. PageRank and NaiveBayes are the only workloads that
// reduce with MergeTermWeights, whose floating-point summation order no
// golden RunReport covers.
struct PinnedDigest {
  const char* workload;
  std::uint64_t digest;
};

void PrintTo(const PinnedDigest& p, std::ostream* os) { *os << p.workload; }

class WorkloadDigestTest : public ::testing::TestWithParam<PinnedDigest> {};

TEST_P(WorkloadDigestTest, CollectedRecordsMatchPinnedDigest) {
  for (Scheme scheme :
       {Scheme::kSpark, Scheme::kCentralized, Scheme::kAggShuffle}) {
    const RunResult r = RunWorkload(GetParam().workload, scheme);
    ASSERT_FALSE(r.records.empty());
    EXPECT_EQ(RecordsDigest(r.records), GetParam().digest)
        << GetParam().workload << " under " << SchemeName(scheme);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ReduceByKey, WorkloadDigestTest,
    ::testing::Values(PinnedDigest{"WordCount", 780325083016066340ull},
                      PinnedDigest{"PageRank", 2644448448367530461ull},
                      PinnedDigest{"NaiveBayes", 17945781971356680881ull}),
    [](const auto& info) { return std::string(info.param.workload); });

// Under Save the driver gets one ack per result partition (its index and
// record count), and the compute job frees the records themselves. The
// acks and the whole RunReport are pinned under every scheme.
TEST(WorkloadCorrectnessTest, SortSaveReturnsPinnedAcksAndReport) {
  WorkloadParams params = TestParams();
  params.collect_results = false;
  const std::uint64_t expected_report[] = {12838890414967237124ull,
                                           15325486425436206719ull,
                                           8335179527921438283ull};
  int i = 0;
  for (Scheme scheme :
       {Scheme::kSpark, Scheme::kCentralized, Scheme::kAggShuffle}) {
    GeoCluster cluster(Ec2SixRegionTopology(kTestScale), TestConfig(scheme));
    const RunResult r = MakeWorkload("Sort", params)->Run(cluster, 42);
    EXPECT_EQ(r.records.size(), 4u) << SchemeName(scheme);
    EXPECT_EQ(RecordsDigest(SortedRecords(r.records)), 17590669975857199227ull)
        << SchemeName(scheme);
    std::int64_t saved = 0;
    for (const Record& ack : r.records) {
      saved += std::get<std::int64_t>(ack.value);
    }
    EXPECT_EQ(saved, 1446) << SchemeName(scheme);
    EXPECT_EQ(Fnv1a64(r.report.ToJson()), expected_report[i++])
        << SchemeName(scheme);
  }
}

TEST(WorkloadCorrectnessTest, WordCountTotalsMatchInputWordCount) {
  RunResult r = RunWorkload("WordCount", Scheme::kAggShuffle);
  std::int64_t total = 0;
  for (const Record& rec : r.records) {
    total += std::get<std::int64_t>(rec.value);
  }
  EXPECT_GT(total, 0);
  // Re-running with the same data seed reproduces the exact total.
  RunResult again = RunWorkload("WordCount", Scheme::kSpark);
  std::int64_t total2 = 0;
  for (const Record& rec : again.records) {
    total2 += std::get<std::int64_t>(rec.value);
  }
  EXPECT_EQ(total, total2);
}

TEST(WorkloadCorrectnessTest, SortOutputIsGloballySorted) {
  RunResult r = RunWorkload("Sort", Scheme::kAggShuffle);
  ASSERT_GT(r.records.size(), 100u);
  for (std::size_t i = 1; i < r.records.size(); ++i) {
    EXPECT_LE(r.records[i - 1].key, r.records[i].key) << "at " << i;
  }
}

TEST(WorkloadCorrectnessTest, TeraSortOutputSortedAndBloated) {
  RunResult r = RunWorkload("TeraSort", Scheme::kSpark);
  ASSERT_GT(r.records.size(), 100u);
  for (std::size_t i = 1; i < r.records.size(); ++i) {
    ASSERT_LE(r.records[i - 1].key, r.records[i].key) << "at " << i;
  }
  // The formatting map appended metadata to every value.
  for (const Record& rec : r.records) {
    EXPECT_NE(std::get<std::string>(rec.value).find("|meta="),
              std::string::npos);
  }
}

TEST(WorkloadCorrectnessTest, PageRankRanksAreValid) {
  RunResult r = RunWorkload("PageRank", Scheme::kAggShuffle);
  ASSERT_EQ(r.records.size(), 250u);  // 500k / 2000
  double total = 0;
  for (const Record& rec : r.records) {
    double rank = std::get<double>(rec.value);
    EXPECT_GE(rank, 0.15) << rec.key;
    total += rank;
  }
  // Ranks roughly conserve mass: sum ~= N (damping keeps it near N).
  EXPECT_GT(total, 0.5 * 250);
  EXPECT_LT(total, 1.5 * 250);
}

TEST(WorkloadCorrectnessTest, NaiveBayesModelCoversAllClasses) {
  RunResult r = RunWorkload("NaiveBayes", Scheme::kCentralized);
  ASSERT_FALSE(r.records.empty());
  for (const Record& rec : r.records) {
    EXPECT_EQ(rec.key.substr(0, 5), "class");
    const auto& model = std::get<std::vector<TermWeight>>(rec.value);
    EXPECT_FALSE(model.empty());
    for (const auto& [term, logp] : model) {
      EXPECT_LT(logp, 0.0) << "log-probabilities must be negative";
    }
  }
}

TEST(WorkloadCorrectnessTest, SpecSummariesMentionScale) {
  for (const std::string& name : AllWorkloadNames()) {
    auto wl = MakeWorkload(name, TestParams());
    EXPECT_FALSE(wl->SpecSummary().empty());
    EXPECT_EQ(wl->name(), name);
  }
}

TEST(WorkloadCorrectnessTest, UnknownWorkloadThrows) {
  EXPECT_THROW(MakeWorkload("bogus", TestParams()), CheckFailure);
}

TEST(WorkloadCorrectnessTest, TeraSortExplicitTransferSameResults) {
  WorkloadParams params = TestParams();
  auto run = [&params](bool explicit_transfer) {
    params.terasort_explicit_transfer = explicit_transfer;
    GeoCluster cluster(Ec2SixRegionTopology(kTestScale),
                       TestConfig(Scheme::kAggShuffle));
    auto wl = MakeWorkload("TeraSort", params);
    return SortedRecords(wl->Run(cluster, 42).records);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace gs

// Multi-job determinism (docs/SERVICE.md): with a fixed seed, a service
// running several interleaved jobs — overlapping arrivals, two weighted
// tenants, concurrent stages contending for slots and WAN links — must be
// a pure function of the configuration. Verified two ways, for every
// scheme: rerunning the identical scenario is byte-identical (every job
// report and the whole-service report), and the compute thread count
// (1 vs 8) changes nothing either.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/combiner.h"
#include "engine/cluster.h"
#include "engine/dataset.h"

namespace gs {
namespace {

constexpr double kScale = 2000;

RunConfig BaseConfig(Scheme scheme, int compute_threads) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 23;
  cfg.scale = kScale;
  cfg.cost = CostModel{}.Scaled(kScale);
  cfg.compute_threads = compute_threads;
  // Stochastic knobs stay ON: determinism must come from the simulation's
  // own RNG, not from disabling randomness.
  return cfg;
}

Dataset Input(GeoCluster& cluster, const std::string& tag, int n, int keys) {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    records.push_back(
        {tag + std::to_string(i % keys), static_cast<std::int64_t>(i)});
  }
  return cluster.Parallelize(tag, records, /*partitions_per_dc=*/1)
      .ReduceByKey(SumInt64(), 4);
}

// The full observable output of one multi-job scenario: each job's record
// set and report plus the whole-service report, serialized.
std::string RunScenario(Scheme scheme, int compute_threads) {
  GeoCluster cluster(Ec2SixRegionTopology(kScale),
                     BaseConfig(scheme, compute_threads));
  struct Spec {
    const char* tag;
    const char* tenant;
    double weight;
    double delay;
    ActionKind action;
  };
  // Staggered arrivals keep all three jobs' stages interleaved on the
  // shared executors rather than running back to back.
  const Spec specs[] = {
      {"a", "alice", 2.0, 0.0, ActionKind::kCollect},
      {"b", "bob", 1.0, 0.4, ActionKind::kSave},
      {"c", "alice", 2.0, 0.8, ActionKind::kCollect},
  };
  std::vector<JobHandle> handles;
  int i = 0;
  for (const Spec& s : specs) {
    JobOptions opts;
    opts.tenant = s.tenant;
    opts.weight = s.weight;
    opts.arrival_delay = s.delay;
    opts.label = s.tag;
    handles.push_back(
        Input(cluster, s.tag, 400 + 40 * i, 9 + i).Submit(s.action, opts));
    ++i;
  }
  cluster.RunUntilQuiescent();

  std::string out;
  for (JobHandle& h : handles) {
    RunResult r = h.Wait();
    for (const Record& rec : r.records) {
      out += rec.key + "=" +
             std::to_string(std::get<std::int64_t>(rec.value)) + ";";
    }
    out += "\n" + r.report.ToJson() + "\n";
  }
  out += cluster.BuildReport(JobMetrics{}, nullptr).ToJson();
  return out;
}

class MultiJobDeterminismTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MultiJobDeterminismTest, RerunIsByteIdentical) {
  EXPECT_EQ(RunScenario(GetParam(), 1), RunScenario(GetParam(), 1));
}

TEST_P(MultiJobDeterminismTest, OneAndEightThreadsAreByteIdentical) {
  EXPECT_EQ(RunScenario(GetParam(), 1), RunScenario(GetParam(), 8));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MultiJobDeterminismTest,
                         ::testing::Values(Scheme::kSpark,
                                           Scheme::kCentralized,
                                           Scheme::kAggShuffle),
                         [](const auto& info) {
                           return std::string(SchemeName(info.param));
                         });

}  // namespace
}  // namespace gs

// Transport golden regression: the fixed-seed workload of
// netsim_determinism_test, run under each non-direct ShuffleTransport
// kind, must serialize a byte-identical RunReport run after run and
// commit after commit. Direct-transport behavior is pinned by the original
// run_report_<Scheme>.json goldens (which this PR must not change); these
// files pin the objstore and fabric paths — service-resource sharing, the
// PUT/GET chain, the gated transport/cost-breakdown report keys.
//
// Intentional behavior changes regenerate the goldens:
//   GS_UPDATE_GOLDENS=1 ./geoshuffle_tests --gtest_filter='*TransportGolden*'
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "golden_report.h"
#include "engine/transport/transport.h"
#include "netsim/pricing.h"

namespace gs {
namespace {

constexpr int kMaps = 12;
constexpr int kShards = 4;

RunConfig BaseConfig(Scheme scheme, TransportKind transport) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 42;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = 2;
  cfg.transport.kind = transport;
  return cfg;
}

Dataset MakeInput(GeoCluster& cluster) {
  const Topology& topo = cluster.topology();
  std::vector<NodeIndex> workers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) workers.push_back(n);
  }
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < kMaps; ++p) {
    std::vector<Record> records;
    records.reserve(120);
    for (int i = 0; i < 120; ++i) {
      records.push_back(
          {"key" + std::to_string((p * 131 + i) % 97), std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = workers[p % workers.size()];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return cluster.CreateSource("transport-golden-input", std::move(parts));
}

RunResult RunWorkload(Scheme scheme, TransportKind transport) {
  GeoCluster cluster(Ec2SixRegionTopology(100),
                     BaseConfig(scheme, transport));
  return MakeInput(cluster)
      .ReduceByKey(SumInt64(), kShards)
      .Run(ActionKind::kCollect);
}

std::string RunReportJson(Scheme scheme, TransportKind transport) {
  return RunWorkload(scheme, transport).report.ToJson();
}

using Case = std::tuple<Scheme, TransportKind>;

std::string GoldenPath(const Case& c) {
  return std::string(GS_TEST_GOLDEN_DIR) + "/run_report_" +
         SchemeName(std::get<0>(c)) + "_" +
         TransportKindName(std::get<1>(c)) + ".json";
}

class TransportGoldenReportTest : public ::testing::TestWithParam<Case> {};

TEST_P(TransportGoldenReportTest, RunReportMatchesGoldenByteForByte) {
  const std::string got =
      RunReportJson(std::get<0>(GetParam()), std::get<1>(GetParam()));
  const std::string path = GoldenPath(GetParam());

  ExpectMatchesGolden(got, path);
}

TEST_P(TransportGoldenReportTest, BackToBackRunsAreByteIdentical) {
  EXPECT_EQ(RunReportJson(std::get<0>(GetParam()), std::get<1>(GetParam())),
            RunReportJson(std::get<0>(GetParam()), std::get<1>(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TransportGoldenReportTest,
    ::testing::Combine(::testing::Values(Scheme::kSpark, Scheme::kCentralized,
                                         Scheme::kAggShuffle),
                       ::testing::Values(TransportKind::kObjectStore,
                                         TransportKind::kFabric)),
    [](const auto& info) {
      return std::string(SchemeName(std::get<0>(info.param))) + "_" +
             TransportKindName(std::get<1>(info.param));
    });

// The frontier the transports exist to expose (docs/PERF.md): on the
// WAN-priced six-region cluster, staging through the object store must be
// strictly cheaper (staged bytes ride the backbone tariff instead of
// internet egress) AND strictly slower (store-and-forward barrier, request
// latencies, shared tier rate) than direct shuffle.
TEST(TransportFrontierTest, ObjectStoreIsCheaperAndSlowerThanDirect) {
  auto run = [](TransportKind transport) {
    RunConfig cfg = BaseConfig(Scheme::kSpark, transport);
    cfg.observe.egress_usd_per_gib = WanPricing::Ec2SixRegionTariff().rates();
    GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
    return MakeInput(cluster)
        .ReduceByKey(SumInt64(), kShards)
        .Run(ActionKind::kCollect);
  };
  const RunResult direct = run(TransportKind::kDirect);
  const RunResult staged = run(TransportKind::kObjectStore);

  EXPECT_LT(staged.report.cost_usd, direct.report.cost_usd);
  EXPECT_GT(staged.metrics.jct(), direct.metrics.jct());
  // The breakdown is only reported for the staged run, and adds up.
  EXPECT_GT(staged.report.store_cost_usd, 0.0);
  EXPECT_DOUBLE_EQ(
      staged.report.cost_usd,
      staged.report.egress_cost_usd + staged.report.store_cost_usd);
  EXPECT_EQ(direct.report.transport, "");
  EXPECT_EQ(staged.report.transport, "objstore");
}

// Results must not depend on the mechanism: every backend computes the
// same records and moves the same logical shuffle bytes (per-job metrics
// account the logical transfer, not the transport's internal legs).
TEST(TransportEquivalenceTest, SameRecordsAndLogicalBytesAcrossBackends) {
  auto sorted = [](const std::vector<Record>& records) {
    std::vector<std::string> out;
    out.reserve(records.size());
    for (const Record& r : records) out.push_back(ToString(r));
    std::sort(out.begin(), out.end());
    return out;
  };
  const RunResult direct = RunWorkload(Scheme::kSpark, TransportKind::kDirect);
  for (TransportKind kind :
       {TransportKind::kObjectStore, TransportKind::kFabric}) {
    const RunResult other = RunWorkload(Scheme::kSpark, kind);
    EXPECT_EQ(sorted(direct.records), sorted(other.records))
        << TransportKindName(kind);
    EXPECT_EQ(direct.metrics.cross_dc_fetch_bytes,
              other.metrics.cross_dc_fetch_bytes)
        << TransportKindName(kind);
  }
}

}  // namespace
}  // namespace gs

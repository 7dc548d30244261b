// End-to-end coded shuffle (docs/CODED.md): r-fold replicated map
// placement plus XOR-coded multicast delivery must (a) leave job results
// bit-identical to the uncoded baseline, (b) beat AggShuffle's cross-DC
// shuffle volume on the paper's six-region topology at r=2 — the locality
// win bought by replication — (c) survive its coder node crashing while
// the multicast is in flight, and (d) be rejected at Submit time for
// redundancies the cluster cannot host.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "engine/trace.h"
#include "workloads/hibench.h"

namespace gs {
namespace {

RunConfig ConfigFor(Scheme scheme, int r) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 1;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  if (r > 0) {
    cfg.coded.enabled = true;
    cfg.coded.redundancy_r = r;
  }
  return cfg;
}

// The geosim wordcount job: HiBench-scaled input on the ec2 six-region
// topology, collected so results can be compared across schemes.
RunResult RunWordcount(const RunConfig& cfg) {
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  WorkloadParams params;
  params.scale = 100;
  params.collect_results = true;
  return MakeWorkload("wordcount", params)->Run(cluster, 7932);
}

std::vector<Record> Sorted(std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  return records;
}

TEST(CodedShuffleTest, ResultsMatchUncodedSpark) {
  RunResult plain = RunWordcount(ConfigFor(Scheme::kSpark, 0));
  RunResult coded = RunWordcount(ConfigFor(Scheme::kSpark, 2));
  ASSERT_GT(plain.records.size(), 0u);
  EXPECT_EQ(Sorted(plain.records), Sorted(coded.records))
      << "coding changes delivery, never data";
}

TEST(CodedShuffleTest, CoderCrashMidMulticastKeepsResults) {
  // A multicast is never cancelled: a crashed coder's legs run to the
  // end, DeliverSegment re-checks the holder's block, and a reducer's
  // fetch failure recovers what the crash lost. Find a WAN leg in a traced
  // run, then crash its coder for good halfway through it.
  RunConfig traced = ConfigFor(Scheme::kSpark, 2);
  traced.observe.trace = true;
  RunResult probe = RunWordcount(traced);
  ASSERT_NE(probe.trace, nullptr);
  const TraceSpan* leg = nullptr;
  for (const TraceSpan& span : probe.trace->spans()) {
    if (span.kind == TraceSpan::Kind::kFlow &&
        span.category == FlowKindName(FlowKind::kCodedMulticast) &&
        span.dc != span.peer_dc) {
      leg = &span;
      break;
    }
  }
  ASSERT_NE(leg, nullptr) << "no coded multicast crossed the WAN";
  ASSERT_LT(leg->start, leg->end);

  RunConfig cfg = ConfigFor(Scheme::kSpark, 2);
  NodeCrashEvent crash;
  crash.at = (leg->start + leg->end) / 2;
  crash.node = leg->node;
  cfg.fault.plan.node_crashes.push_back(crash);
  RunResult coded = RunWordcount(cfg);
  EXPECT_EQ(coded.metrics.node_crashes, 1);
  EXPECT_GT(coded.metrics.fetch_failures, 0)
      << "the crash must have cost blocks that recovery then rebuilt";
  RunResult plain = RunWordcount(ConfigFor(Scheme::kSpark, 0));
  EXPECT_EQ(Sorted(plain.records), Sorted(coded.records))
      << "crash of node " << crash.node << " at t=" << crash.at
      << " during a multicast leg [" << leg->start << ", " << leg->end
      << "]";
}

TEST(CodedShuffleTest, BeatsAggShuffleWanBytesAtRedundancyTwo) {
  RunResult agg = RunWordcount(ConfigFor(Scheme::kAggShuffle, 0));
  RunResult coded = RunWordcount(ConfigFor(Scheme::kSpark, 2));
  EXPECT_LT(coded.metrics.cross_dc_bytes, agg.metrics.cross_dc_bytes)
      << "r=2 replication locality must strictly beat AggShuffle's "
         "aggregation savings on this workload";
  // The machinery itself must have engaged, not just fallen back to
  // unicast residuals.
  EXPECT_GE(coded.metrics.coded_groups, 1);
  EXPECT_GT(coded.metrics.coded_multicast_bytes, 0);
  EXPECT_GT(coded.metrics.coded_local_bytes, 0)
      << "replication exists to serve shards from an in-DC replica";
  EXPECT_GT(coded.metrics.coded_replica_compute_seconds, 0.0)
      << "the (r-1)-fold redundant map compute must be charged";
}

TEST(CodedShuffleTest, ReplicationShrinksWanBytesVersusPlainSpark) {
  RunResult plain = RunWordcount(ConfigFor(Scheme::kSpark, 0));
  RunResult coded = RunWordcount(ConfigFor(Scheme::kSpark, 2));
  EXPECT_LT(coded.metrics.cross_dc_bytes, plain.metrics.cross_dc_bytes);
}

TEST(CodedShuffleTest, ReportGatesCodedKeysOnTheFlag) {
  RunResult plain = RunWordcount(ConfigFor(Scheme::kSpark, 0));
  EXPECT_FALSE(plain.report.coded);
  EXPECT_EQ(plain.report.ToJson().find("\"coded\""), std::string::npos)
      << "coded-off reports must stay byte-identical to pre-coded goldens";

  RunResult coded = RunWordcount(ConfigFor(Scheme::kSpark, 2));
  EXPECT_TRUE(coded.report.coded);
  EXPECT_EQ(coded.report.coded_redundancy_r, 2);
  const std::string json = coded.report.ToJson();
  EXPECT_NE(json.find("\"coded\""), std::string::npos);
  EXPECT_NE(json.find("\"redundancy_r\":2"), std::string::npos);
}

void ExpectRejected(RunConfig cfg) {
  EXPECT_THROW(GeoCluster(Ec2SixRegionTopology(100), std::move(cfg)),
               CheckFailure);
}

TEST(CodedValidationTest, RejectsRedundancyBelowOne) {
  RunConfig cfg = ConfigFor(Scheme::kSpark, 2);
  cfg.coded.redundancy_r = 0;
  ExpectRejected(std::move(cfg));
}

TEST(CodedValidationTest, RejectsRedundancyAboveDatacenterCount) {
  // Six datacenters on this topology: r=7 has nowhere to put a replica.
  RunConfig cfg = ConfigFor(Scheme::kSpark, 7);
  ExpectRejected(std::move(cfg));
}

TEST(CodedValidationTest, RejectsNonSparkSchemes) {
  ExpectRejected(ConfigFor(Scheme::kAggShuffle, 2));
  ExpectRejected(ConfigFor(Scheme::kCentralized, 2));
}

TEST(CodedValidationTest, AcceptsFullRangeOfValidRedundancies) {
  for (int r : {1, 2, 6}) {
    EXPECT_NO_THROW(
        GeoCluster(Ec2SixRegionTopology(100), ConfigFor(Scheme::kSpark, r)))
        << "r=" << r;
  }
}

}  // namespace
}  // namespace gs

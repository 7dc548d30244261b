// Fault injection and recovery: node crashes, link flaps and lost blocks,
// driven through FaultPlan. Covers the ISSUE's acceptance scenario — a node
// crash during the map stage completes under every scheme, and recovery
// re-transfers an order of magnitude fewer cross-DC bytes under
// Push/Aggregate than under fetch-based shuffle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "engine/trace.h"
#include "storage/block.h"

namespace gs {
namespace {

constexpr int kMaps = 48;    // two waves over the 24 workers
constexpr int kShards = 8;

RunConfig DeterministicConfig(Scheme scheme) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 17;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  return cfg;
}

// 48 map partitions, two per worker; DC0 holds strictly the most bytes so
// kLargestInput deterministically aggregates (and centralizes) there —
// crashes in other datacenters then exercise the WAN recovery paths.
Dataset SkewedInput(GeoCluster& cluster) {
  const Topology& topo = cluster.topology();
  std::vector<NodeIndex> workers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) workers.push_back(n);
  }
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < kMaps; ++p) {
    const NodeIndex node = workers[p % workers.size()];
    const int n_records = topo.dc_of(node) == 0 ? 400 : 200;
    std::vector<Record> records;
    records.reserve(n_records);
    for (int i = 0; i < n_records; ++i) {
      records.push_back(
          {"key" + std::to_string((p * 131 + i) % 101), std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = node;
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return cluster.CreateSource("skewed-input", std::move(parts));
}

RunResult RunCounts(GeoCluster& cluster) {
  RunResult run = SkewedInput(cluster)
                      .ReduceByKey(SumInt64(), kShards)
                      .Run(ActionKind::kCollect);
  std::sort(run.records.begin(), run.records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  return run;
}

// Sim-time 90% of the way through the earliest kMaps-task stage of a
// healthy run — i.e. while the second wave of map tasks is computing and
// the first wave's outputs already exist on every worker.
SimTime MidMapCrashTime(Scheme scheme) {
  GeoCluster probe(Ec2SixRegionTopology(100), DeterministicConfig(scheme));
  const JobMetrics m = RunCounts(probe).metrics;
  for (const StageMetrics& s : m.stages) {
    if (s.num_tasks == kMaps) {
      return s.submitted + 0.9 * (s.completed - s.submitted);
    }
  }
  ADD_FAILURE() << "no " << kMaps << "-task map stage found";
  return 0;
}

RunConfig MidMapCrashConfig(Scheme scheme, NodeIndex victim,
                            SimTime restart_after = 0) {
  RunConfig cfg = DeterministicConfig(scheme);
  NodeCrashEvent crash;
  crash.at = MidMapCrashTime(scheme);
  crash.node = victim;
  crash.restart_after = restart_after;
  cfg.fault.plan.node_crashes.push_back(crash);
  return cfg;
}

constexpr NodeIndex kVictim = 20;  // a DC5 worker — never the aggregator

class MidMapCrashTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(MidMapCrashTest, JobCompletesAndResultsMatchHealthyRun) {
  GeoCluster healthy(Ec2SixRegionTopology(100),
                     DeterministicConfig(GetParam()));
  auto expected = RunCounts(healthy).records;

  GeoCluster crashed(Ec2SixRegionTopology(100),
                     MidMapCrashConfig(GetParam(), kVictim));
  RunResult got = RunCounts(crashed);
  EXPECT_EQ(got.records, expected);
  EXPECT_EQ(got.metrics.node_crashes, 1);
  EXPECT_FALSE(crashed.scheduler().node_up(kVictim));
}

TEST_P(MidMapCrashTest, JobCompletesWhenTheNodeRestarts) {
  GeoCluster healthy(Ec2SixRegionTopology(100),
                     DeterministicConfig(GetParam()));
  auto expected = RunCounts(healthy).records;

  GeoCluster crashed(
      Ec2SixRegionTopology(100),
      MidMapCrashConfig(GetParam(), kVictim, /*restart_after=*/Seconds(20)));
  auto got = RunCounts(crashed).records;
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MidMapCrashTest,
                         ::testing::Values(Scheme::kSpark,
                                           Scheme::kCentralized,
                                           Scheme::kAggShuffle),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

TEST(MidMapCrashTest, SparkResubmitsLostMapsViaFetchFailure) {
  GeoCluster crashed(Ec2SixRegionTopology(100),
                     MidMapCrashConfig(Scheme::kSpark, kVictim));
  const JobMetrics m = RunCounts(crashed).metrics;
  EXPECT_GT(m.fetch_failures, 0) << "reducers must discover the lost blocks";
  EXPECT_GT(m.map_resubmissions, 0) << "only the lost maps are re-run";
  EXPECT_LT(m.map_resubmissions, kMaps) << "the whole stage must NOT re-run";
}

// The ISSUE's headline number: a mid-map node crash makes fetch-based
// shuffle re-transfer >= 10x more extra cross-DC bytes than Push/Aggregate.
// Under kSpark every reducer's partial WAN gather is wasted and the whole
// shard is re-fetched over the WAN; under kAggShuffle the re-fetch happens
// inside the aggregator datacenter and only the victim's pushes repeat.
TEST(MidMapCrashTest, AggShuffleRetransfersTenTimesFewerCrossDcBytes) {
  auto extra = [](Scheme scheme) {
    GeoCluster healthy(Ec2SixRegionTopology(100),
                       DeterministicConfig(scheme));
    Bytes base = RunCounts(healthy).metrics.cross_dc_bytes;
    GeoCluster crashed(Ec2SixRegionTopology(100),
                       MidMapCrashConfig(scheme, kVictim));
    return RunCounts(crashed).metrics.cross_dc_bytes - base;
  };
  const Bytes spark_extra = extra(Scheme::kSpark);
  const Bytes agg_extra = extra(Scheme::kAggShuffle);
  EXPECT_GT(spark_extra, 0);
  EXPECT_GE(spark_extra, 10 * std::max<Bytes>(agg_extra, 1))
      << "spark_extra=" << spark_extra << " agg_extra=" << agg_extra;
}

TEST(FaultPlanTest, DeterministicUnderAFixedSeed) {
  auto run = [] {
    GeoCluster cluster(Ec2SixRegionTopology(100),
                       MidMapCrashConfig(Scheme::kAggShuffle, kVictim));
    return RunCounts(cluster).metrics;
  };
  const JobMetrics a = run();
  const JobMetrics b = run();
  EXPECT_EQ(a.jct(), b.jct());
  EXPECT_EQ(a.cross_dc_bytes, b.cross_dc_bytes);
  EXPECT_EQ(a.task_failures, b.task_failures);
  EXPECT_EQ(a.map_resubmissions, b.map_resubmissions);
}

// A WAN link flapping (full outage, then restore) while transfer pushes are
// in flight: flows stall and resume, the job completes correctly and pays
// for the outage in completion time.
TEST(LinkFlapTest, PushesSurviveAWanOutageDuringTheMapStage) {
  const Scheme scheme = Scheme::kAggShuffle;
  GeoCluster healthy(Ec2SixRegionTopology(100), DeterministicConfig(scheme));
  RunResult healthy_run = RunCounts(healthy);
  const auto& expected = healthy_run.records;
  const double healthy_jct = healthy_run.metrics.jct();

  RunConfig cfg = DeterministicConfig(scheme);
  LinkDegradationEvent flap;
  flap.at = MidMapCrashTime(scheme) * 0.5;  // while pushes are in flight
  flap.src = 5;                             // DC5 -> aggregator DC0
  flap.dst = 0;
  flap.factor = 0.0;                        // full outage
  flap.duration = Seconds(30);
  flap.symmetric = true;
  cfg.fault.plan.link_degradations.push_back(flap);
  GeoCluster flapping(Ec2SixRegionTopology(100), cfg);
  RunResult got = RunCounts(flapping);
  EXPECT_EQ(got.records, expected);
  EXPECT_GT(got.metrics.jct(), healthy_jct);
}

// Crashing the node a push landed on (an aggregator-DC worker) exercises
// the receiver recovery path: the producer re-pushes, with backoff, to a
// replacement receiver in the aggregator datacenter.
TEST(ReceiverCrashTest, PushIsRetriedToAReplacementReceiver) {
  const Scheme scheme = Scheme::kAggShuffle;
  GeoCluster healthy(Ec2SixRegionTopology(100), DeterministicConfig(scheme));
  auto expected = RunCounts(healthy).records;

  RunConfig cfg = MidMapCrashConfig(scheme, /*victim=*/1);  // DC0 worker
  GeoCluster crashed(Ec2SixRegionTopology(100), cfg);
  RunResult got = RunCounts(crashed);
  EXPECT_EQ(got.records, expected);
  const JobMetrics& m = got.metrics;
  EXPECT_GT(m.push_retries + m.push_fallbacks + m.map_resubmissions, 0)
      << "losing an aggregator-DC worker must trigger recovery";
}

// A producer that finished on the crashed node while its push was still
// on the wire loses the buffered output with its executor: the receiver
// must drop the doomed push and the completed producer must run again, so
// that partition's map task completes twice. Nothing else re-runs a
// completed map here — the victim hosts no receiver (DC5, aggregation is
// in DC0), so no fetch failure can resubmit one.
TEST(ProducerCrashTest, FinishedProducerWithUnlandedPushIsRerun) {
  const Scheme scheme = Scheme::kAggShuffle;
  GeoCluster healthy(Ec2SixRegionTopology(100), DeterministicConfig(scheme));
  auto expected = RunCounts(healthy).records;

  RunConfig cfg = MidMapCrashConfig(scheme, kVictim);
  cfg.observe.trace = true;
  GeoCluster crashed(Ec2SixRegionTopology(100), cfg);
  RunResult got = RunCounts(crashed);
  EXPECT_EQ(got.records, expected);
  ASSERT_NE(got.trace, nullptr);
  std::map<std::string, int> completions;
  for (const TraceSpan& span : got.trace->spans()) {
    if (span.kind != TraceSpan::Kind::kTask || span.category != "map") {
      continue;
    }
    ++completions[span.name.substr(0, span.name.find('#'))];
  }
  int rerun = 0;
  for (const auto& [task, n] : completions) rerun += n > 1;
  EXPECT_GT(rerun, 0) << "no finished producer was re-run after its "
                         "unlanded push died with the node";
}

// Losing shuffle blocks without a crash (disk loss): the owner is alive,
// so only lazy fetch-failure detection can notice.
TEST(BlockLossTest, LostShuffleBlocksAreRegenerated) {
  const Scheme scheme = Scheme::kSpark;
  GeoCluster healthy(Ec2SixRegionTopology(100), DeterministicConfig(scheme));
  RunResult healthy_run = RunCounts(healthy);
  const auto& expected = healthy_run.records;
  SimTime map_end = 0;
  for (const StageMetrics& s : healthy_run.metrics.stages) {
    if (s.num_tasks == kMaps) map_end = s.completed;
  }
  ASSERT_GT(map_end, 0);

  RunConfig cfg = DeterministicConfig(scheme);
  BlockLossEvent loss;
  loss.at = map_end;  // between map completion and the reduce gathers
  loss.node = kVictim;
  cfg.fault.plan.block_losses.push_back(loss);
  GeoCluster lossy(Ec2SixRegionTopology(100), cfg);
  RunResult got = RunCounts(lossy);
  EXPECT_EQ(got.records, expected);
  const JobMetrics& m = got.metrics;
  EXPECT_EQ(m.node_crashes, 0);
  EXPECT_GT(m.fetch_failures, 0);
  EXPECT_GT(m.map_resubmissions, 0);
}

// Random crash schedules (with restarts) still finish with correct results.
TEST(RandomCrashTest, JobSurvivesRandomRestartingCrashes) {
  for (Scheme scheme : {Scheme::kSpark, Scheme::kAggShuffle}) {
    GeoCluster healthy(Ec2SixRegionTopology(100),
                       DeterministicConfig(scheme));
    auto expected = RunCounts(healthy).records;

    RunConfig cfg = DeterministicConfig(scheme);
    // The synthetic job runs for under a second of simulated time; crash
    // every ~0.15s so several land while it is in flight.
    cfg.fault.plan.random_crashes.mean_interarrival = Seconds(0.15);
    cfg.fault.plan.random_crashes.restart_after = Seconds(2);
    cfg.fault.plan.random_crashes.max_crashes = 3;
    GeoCluster chaotic(Ec2SixRegionTopology(100), cfg);
    RunResult got = RunCounts(chaotic);
    EXPECT_EQ(got.records, expected) << SchemeName(scheme);
    EXPECT_GT(got.metrics.node_crashes, 0)
        << SchemeName(scheme) << ": the chaos schedule must actually fire";
  }
}

}  // namespace
}  // namespace gs

// Thread-count determinism of the compute offload (docs/PERF.md): the
// event loop submits compute jobs at task-start events and consumes their
// results at the (simulated) compute-done events, so simulation outputs
// are a function of the seed alone — RunConfig::compute_threads must not
// change a single record or metric. Verified fault-free and under a
// FaultPlan mid-map node crash (where discarded task attempts leave
// orphaned pool jobs behind), for every scheme, and under receiver crashes
// (where a receiver's compute, submitted at push time, is either consumed
// and resubmitted or dropped with its inbox).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "storage/block.h"

namespace gs {
namespace {

constexpr int kMaps = 48;  // two waves over the 24 workers
constexpr int kShards = 8;

RunConfig BaseConfig(Scheme scheme, int compute_threads) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 7;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.compute_threads = compute_threads;
  // Keep stochastic knobs ON: determinism must come from the simulation's
  // own RNG, not from disabling randomness.
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
    records.reserve(300);
    for (int i = 0; i < 300; ++i) {
      records.push_back(
          {"key" + std::to_string((p * 131 + i) % 257), std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = workers[p % workers.size()];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return cluster.CreateSource("determinism-input", std::move(parts));
}

// The jobs a run can execute: the scheme's plain ReduceByKey, or an
// explicit TransferTo() into DC0 followed by a map and a ReduceByKey (run
// under kSpark, so the only transfer is the explicit one).
enum class Job { kReduceByKey, kExplicitTransfer };

struct RunSnapshot {
  std::vector<Record> records;
  JobMetrics metrics;
  std::string report_json;
  std::vector<TraceSpan> spans;  // empty unless observe.trace
};

RunSnapshot RunWith(RunConfig cfg, Job job = Job::kReduceByKey) {
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  Dataset input = MakeInput(cluster);
  if (job == Job::kExplicitTransfer) {
    input = input.TransferTo(0).Map("tag", [](const Record& r) {
      return Record{r.key.substr(0, 4), r.value};
    });
  }
  RunResult run =
      input.ReduceByKey(SumInt64(), kShards).Run(ActionKind::kCollect);
  RunSnapshot snap;
  snap.records = std::move(run.records);
  snap.metrics = run.metrics;
  snap.report_json = run.report.ToJson();
  if (run.trace != nullptr) snap.spans = run.trace->spans();
  return snap;
}

// Byte-for-byte identity of everything a run produces. Record order is
// part of the claim: no sorting before comparison.
void ExpectIdentical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.records, b.records);
  // The serialized RunReport covers every exported observable: metric
  // snapshots, per-link utilization buckets, cost, and stage spans.
  EXPECT_EQ(a.report_json, b.report_json)
      << "RunReport JSON must be byte-identical across thread counts";
  EXPECT_EQ(a.metrics.started, b.metrics.started);
  EXPECT_EQ(a.metrics.completed, b.metrics.completed);
  EXPECT_EQ(a.metrics.cross_dc_bytes, b.metrics.cross_dc_bytes);
  EXPECT_EQ(a.metrics.cross_dc_fetch_bytes, b.metrics.cross_dc_fetch_bytes);
  EXPECT_EQ(a.metrics.cross_dc_push_bytes, b.metrics.cross_dc_push_bytes);
  EXPECT_EQ(a.metrics.cross_dc_centralize_bytes,
            b.metrics.cross_dc_centralize_bytes);
  EXPECT_EQ(a.metrics.task_failures, b.metrics.task_failures);
  EXPECT_EQ(a.metrics.fetch_failures, b.metrics.fetch_failures);
  EXPECT_EQ(a.metrics.node_crashes, b.metrics.node_crashes);
  EXPECT_EQ(a.metrics.map_resubmissions, b.metrics.map_resubmissions);
  EXPECT_EQ(a.metrics.push_retries, b.metrics.push_retries);
  EXPECT_EQ(a.metrics.push_fallbacks, b.metrics.push_fallbacks);
  ASSERT_EQ(a.metrics.stages.size(), b.metrics.stages.size());
  for (std::size_t i = 0; i < a.metrics.stages.size(); ++i) {
    EXPECT_EQ(a.metrics.stages[i].submitted, b.metrics.stages[i].submitted);
    EXPECT_EQ(a.metrics.stages[i].completed, b.metrics.stages[i].completed);
  }
}

class ComputeThreadsTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(ComputeThreadsTest, OneAndEightThreadsAreByteIdentical) {
  ExpectIdentical(RunWith(BaseConfig(GetParam(), 1)),
                  RunWith(BaseConfig(GetParam(), 8)));
}

// Sim-time 60% of the way through the kMaps-task map stage of a healthy
// run: the crash lands while map compute jobs are in flight, so restarted
// attempts orphan their predecessors' pool jobs.
SimTime MidMapCrashTime(Scheme scheme) {
  RunSnapshot probe = RunWith(BaseConfig(scheme, 1));
  for (const StageMetrics& s : probe.metrics.stages) {
    if (s.num_tasks == kMaps) {
      return s.submitted + 0.6 * (s.completed - s.submitted);
    }
  }
  ADD_FAILURE() << "no " << kMaps << "-task map stage found";
  return 0;
}

TEST_P(ComputeThreadsTest, IdenticalUnderAMidMapNodeCrash) {
  NodeCrashEvent crash;
  crash.at = MidMapCrashTime(GetParam());
  crash.node = 20;  // a DC5 worker — never the aggregator
  crash.restart_after = 0;

  RunConfig one = BaseConfig(GetParam(), 1);
  one.fault.plan.node_crashes.push_back(crash);
  RunConfig eight = BaseConfig(GetParam(), 8);
  eight.fault.plan.node_crashes.push_back(crash);

  const RunSnapshot a = RunWith(one);
  const RunSnapshot b = RunWith(eight);
  EXPECT_EQ(a.metrics.node_crashes, 1);
  ExpectIdentical(a, b);
}

// --- receiver recovery ---------------------------------------------------
//
// A receiver's compute is submitted when its producer notifies and joined
// when its write phase starts. Two crashes hit that timeline:
//  * kWritePhase: the receiver's node dies mid write phase. The future was
//    already consumed, so the re-pushed receiver resubmits its compute
//    from the retained inbox.
//  * kWithProducer: the receiver's and its producer's nodes die together.
//    The pushed output is gone, so the inbox and the future are dropped
//    and the producer's re-run notifies again and submits a fresh one.

enum class ReceiverFault { kWritePhase, kWithProducer };

struct ReceiverRecoveryCase {
  const char* name;
  Scheme scheme;
  Job job;
  ReceiverFault fault;
};

// Partition number of a task span named "stage<S>/part<P>[#...]".
int SpanPartition(const TraceSpan& span) {
  const std::size_t at = span.name.find("/part");
  return at == std::string::npos ? -1 : std::stoi(span.name.substr(at + 5));
}

struct ReceiverVictim {
  const TraceSpan* receiver = nullptr;
  NodeIndex producer_node = kNoNode;
};

// The first receiver (by write-phase start) whose producer ran on another
// node, so its input really was pushed.
std::optional<ReceiverVictim> FindReceiverVictim(
    const std::vector<TraceSpan>& spans) {
  std::optional<ReceiverVictim> best;
  for (const TraceSpan& r : spans) {
    if (r.kind != TraceSpan::Kind::kTask || r.category != "receiver" ||
        r.end <= r.start) {
      continue;
    }
    for (const TraceSpan& m : spans) {
      if (m.kind == TraceSpan::Kind::kTask && m.category == "map" &&
          SpanPartition(m) == SpanPartition(r) && m.node != r.node &&
          (!best || r.start < best->receiver->start)) {
        best = ReceiverVictim{&r, m.node};
      }
    }
  }
  return best;
}

std::vector<const TraceSpan*> TaskSpans(const std::vector<TraceSpan>& spans,
                                        const std::string& category,
                                        int partition) {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& s : spans) {
    if (s.kind == TraceSpan::Kind::kTask && s.category == category &&
        SpanPartition(s) == partition) {
      out.push_back(&s);
    }
  }
  return out;
}

class ReceiverRecoveryTest
    : public ::testing::TestWithParam<ReceiverRecoveryCase> {};

TEST_P(ReceiverRecoveryTest, ByteIdenticalAcrossThreadsAndReruns) {
  const ReceiverRecoveryCase& c = GetParam();
  auto config = [&](int threads) {
    RunConfig cfg = BaseConfig(c.scheme, threads);
    cfg.observe.trace = true;
    // A fault plan splits the fault injector's stream off the cluster RNG
    // before the job's, so a faulted run draws other straggler factors
    // than the healthy probe. Without stragglers both runs agree up to
    // the crash (WAN jitter's stream is split first and stays on).
    cfg.cost.straggler_prob = 0;
    cfg.cost.straggler_sigma = 0;
    return cfg;
  };
  const RunSnapshot healthy = RunWith(config(1), c.job);
  const std::optional<ReceiverVictim> victim =
      FindReceiverVictim(healthy.spans);
  ASSERT_TRUE(victim.has_value()) << "no pushed receiver in the healthy run";
  const TraceSpan& receiver = *victim->receiver;
  const int partition = SpanPartition(receiver);

  FaultPlan plan;
  NodeCrashEvent crash;
  crash.at = receiver.start + 0.5 * (receiver.end - receiver.start);
  if (c.fault == ReceiverFault::kWithProducer) {
    // Same instant, producer first: by the time the receiver's node dies,
    // the push source is already gone.
    crash.node = victim->producer_node;
    plan.node_crashes.push_back(crash);
  }
  crash.node = receiver.node;
  plan.node_crashes.push_back(crash);

  auto faulted = [&](int threads) {
    RunConfig cfg = config(threads);
    cfg.fault.plan = plan;
    return RunWith(cfg, c.job);
  };
  const RunSnapshot one = faulted(1);
  const RunSnapshot four = faulted(4);
  const RunSnapshot rerun = faulted(4);
  ExpectIdentical(one, four);
  ExpectIdentical(four, rerun);
  EXPECT_EQ(one.records, healthy.records);
  EXPECT_EQ(one.metrics.node_crashes,
            static_cast<int>(plan.node_crashes.size()));
  // The receiver's write phase ran again after the crash; after a double
  // fault its producer re-ran too (a retry attempt), otherwise the retained
  // inbox was re-pushed.
  const std::vector<const TraceSpan*> receivers =
      TaskSpans(one.spans, "receiver", partition);
  ASSERT_EQ(receivers.size(), 1u);
  EXPECT_GT(receivers.front()->start, crash.at);
  const std::vector<const TraceSpan*> producers =
      TaskSpans(one.spans, "map", partition);
  EXPECT_EQ(std::any_of(producers.begin(), producers.end(),
                        [](const TraceSpan* p) {
                          return p->name.find("#retry") != std::string::npos;
                        }),
            c.fault == ReceiverFault::kWithProducer);
  if (c.fault == ReceiverFault::kWritePhase) {
    EXPECT_GT(one.metrics.push_retries + one.metrics.push_fallbacks, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Crashes, ReceiverRecoveryTest,
    ::testing::Values(
        ReceiverRecoveryCase{"AggShuffleWritePhase", Scheme::kAggShuffle,
                             Job::kReduceByKey, ReceiverFault::kWritePhase},
        ReceiverRecoveryCase{"AggShuffleWithProducer", Scheme::kAggShuffle,
                             Job::kReduceByKey, ReceiverFault::kWithProducer},
        ReceiverRecoveryCase{"TransferToWritePhase", Scheme::kSpark,
                             Job::kExplicitTransfer,
                             ReceiverFault::kWritePhase},
        ReceiverRecoveryCase{"TransferToWithProducer", Scheme::kSpark,
                             Job::kExplicitTransfer,
                             ReceiverFault::kWithProducer}),
    [](const auto& info) { return std::string(info.param.name); });

INSTANTIATE_TEST_SUITE_P(Schemes, ComputeThreadsTest,
                         ::testing::Values(Scheme::kSpark,
                                           Scheme::kCentralized,
                                           Scheme::kAggShuffle),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

}  // namespace
}  // namespace gs

// Minimized-seed regressions for every bug the simcheck harness found.
//
// Each JSON literal below is the exact reproducer geosim-fuzz shrank a
// failing configuration down to; the test replays it through the same
// FromJson + Run*Check path the --replay flag uses and requires every
// invariant to hold. A second set of tests pins each root cause directly
// at the subsystem that had it, so a regression fails in the smallest
// possible arena rather than only through the differential harness.
#include <gtest/gtest.h>

#include <string>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "rdd/rdd.h"
#include "sched/task_scheduler.h"
#include "simcheck/simcheck.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

using simcheck::CheckResult;
using simcheck::FromJson;
using simcheck::SimcheckConfig;

SimcheckConfig Parse(const std::string& json) {
  SimcheckConfig cfg;
  std::string error;
  EXPECT_TRUE(FromJson(json, &cfg, &error)) << error;
  return cfg;
}

std::string Describe(const CheckResult& r) {
  std::string out;
  for (const auto& v : r.violations) {
    out += "[" + v.invariant + "] " + v.detail + "\n";
  }
  return out;
}

// Bug 1 (netsim): loopback flows (src == dst) were dropped before the
// TrafficMeter and the flow counters, so the per-flow byte sum and
// flows_started disagreed with the number of StartFlow calls. Loopback
// flows are now metered on the intra-DC diagonal and complete through a
// fixed-latency event.
TEST(SimcheckRegressionTest, LoopbackFlowsAccountedSeed1) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":1,"num_dcs":1,"nodes_per_dc":1,"dedicated_driver":false,)"
      R"("wan_rate_mbps":200,"rtt_ms":100,"uniform_wan":true,"dag_shape":0,)"
      R"("num_records":8,"num_keys":2,"partitions_per_dc":1,"num_shards":1,)"
      R"("map_side_combine":false,"save_action":false,)"
      R"("aggregator_dc_count":1,"threads_high":2,"noisy_network":false,)"
      R"("crash":false,"crash_victim":3,"crash_frac":0.262624127359,)"
      R"("restart_after":5.59983297479,"degrade":false,"degrade_factor":0,)"
      R"("degrade_frac":0.505789606462,"degrade_duration":7.16642892316,)"
      R"("block_loss":false,"block_loss_frac":0.677434012517})");
  const CheckResult r = simcheck::RunNetsimCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// Bug 2 (engine): GeoCluster::Parallelize counted the non-worker driver in
// its round-robin modulus, silently creating fewer partitions than
// requested in the driver's datacenter. Minimized: one datacenter, one
// worker plus a dedicated driver, two partitions per datacenter.
TEST(SimcheckRegressionTest, ParallelizePartitionCountWithDriver) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":1,"num_dcs":1,"nodes_per_dc":1,"dedicated_driver":true,)"
      R"("wan_rate_mbps":200,"rtt_ms":100,"uniform_wan":true,"dag_shape":0,)"
      R"("num_records":8,"num_keys":2,"partitions_per_dc":2,"num_shards":1,)"
      R"("map_side_combine":false,"save_action":false,)"
      R"("aggregator_dc_count":1,"threads_high":2,"noisy_network":false,)"
      R"("crash":false,"crash_victim":3,"crash_frac":0.262624127359,)"
      R"("restart_after":5.59983297479,"degrade":false,"degrade_factor":0,)"
      R"("degrade_frac":0.505789606462,"degrade_duration":7.16642892316,)"
      R"("block_loss":false,"block_loss_frac":0.677434012517})");
  const CheckResult r = simcheck::RunEngineCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// Bug 3 (scheduler): with the Centralized scheme, tasks pinned kDcOnly to
// the central datacenter queued forever when its only worker crashed
// permanently — the simulation drained mid-job. kDcOnly may now spill
// anywhere after the locality wait, but only once every worker in every
// preferred datacenter is down.
TEST(SimcheckRegressionTest, CentralDcDeathDoesNotHangSeed217) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":217,"num_dcs":3,"nodes_per_dc":1,"dedicated_driver":false,)"
      R"("wan_rate_mbps":200,"rtt_ms":100,"uniform_wan":true,"dag_shape":0,)"
      R"("num_records":32,"num_keys":21,"partitions_per_dc":1,)"
      R"("num_shards":1,"map_side_combine":true,"save_action":false,)"
      R"("aggregator_dc_count":1,"threads_high":2,"noisy_network":false,)"
      R"("crash":true,"crash_victim":1,"crash_frac":0.316142085971,)"
      R"("restart_after":0,"degrade":false,"degrade_factor":0.621635054046,)"
      R"("degrade_frac":0.305900770943,"degrade_duration":4.22096630283,)"
      R"("block_loss":true,"block_loss_frac":0.445944771658})");
  const CheckResult r = simcheck::RunEngineCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// Bug 4 (scheduler): the any-placement eligibility test recomputed
// `now - submitted_at >= locality_wait` with doubles; at the wait-expiry
// wake-up the difference can land one ulp below the wait and the task
// stays queued with no later event to pump the scheduler. The deadline is
// now computed once at submission and compared against absolutely.
TEST(SimcheckRegressionTest, LocalityWaitUlpDoesNotHangSeed1159) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":1159,"num_dcs":4,"nodes_per_dc":1,"dedicated_driver":true,)"
      R"("wan_rate_mbps":200,"rtt_ms":232,"uniform_wan":false,)"
      R"("dag_shape":3,"num_records":477,"num_keys":4,"partitions_per_dc":1,)"
      R"("num_shards":1,"map_side_combine":true,"save_action":true,)"
      R"("aggregator_dc_count":1,"threads_high":2,"noisy_network":true,)"
      R"("crash":true,"crash_victim":1,"crash_frac":0.6037772650525833,)"
      R"("restart_after":0,"degrade":true,)"
      R"("degrade_factor":0.752017506334973,)"
      R"("degrade_frac":0.27717519044221883,)"
      R"("degrade_duration":7.078541620182604,"block_loss":false,)"
      R"("block_loss_frac":0.46656825557328974})");
  const CheckResult r = simcheck::RunEngineCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// Bug 5 (engine): PlaceReceiver round-robined over aggregator-datacenter
// workers without checking liveness, so a receiver placed after a crash
// could pin to the dead executor; its kNodeOnly write phase then queued
// forever. Placement now skips down nodes and falls back to the recovery
// pick when the whole subset is dead.
TEST(SimcheckRegressionTest, ReceiverNotPlacedOnDeadNodeSeed1250) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":1250,"num_dcs":3,"nodes_per_dc":1,)"
      R"("dedicated_driver":false,"wan_rate_mbps":200,"rtt_ms":100,)"
      R"("uniform_wan":true,"dag_shape":0,"num_records":225,"num_keys":59,)"
      R"("partitions_per_dc":3,"num_shards":1,"map_side_combine":true,)"
      R"("save_action":true,"aggregator_dc_count":1,"threads_high":2,)"
      R"("noisy_network":false,"crash":true,"crash_victim":2,)"
      R"("crash_frac":0.2294528068740297,"restart_after":0,"degrade":true,)"
      R"("degrade_factor":0.26620954056315327,)"
      R"("degrade_frac":0.1523447162639089,)"
      R"("degrade_duration":7.015970051223977,"block_loss":false,)"
      R"("block_loss_frac":0.6924807983355934})");
  const CheckResult r = simcheck::RunEngineCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// Bug 6 (engine): RecoverReceiver lifted a dead receiver's kNodeOnly
// write-phase pin only under adaptive placement. In a non-adaptive run a
// permanent crash left the orphaned request pinned to the dead node, so
// the job completed with the scheduler queue still holding it (the
// "scheduler queue not drained" family). The pin is now lifted in every
// run. Minimized from seed 5659.
TEST(SimcheckRegressionTest, ReceiverPinLiftedAfterPermanentCrashSeed5659) {
  const SimcheckConfig cfg = Parse(
      R"({"seed":5659,"num_dcs":1,"nodes_per_dc":3,"dedicated_driver":true,)"
      R"("wan_rate_mbps":80,"rtt_ms":158,"uniform_wan":false,"dag_shape":4,)"
      R"("num_records":15,"num_keys":26,"partitions_per_dc":5,)"
      R"("num_shards":1,"map_side_combine":true,"save_action":false,)"
      R"("aggregator_dc_count":2,"threads_high":2,"noisy_network":false,)"
      R"("crash":true,"crash_victim":3,"crash_frac":0.59928137616989,)"
      R"("restart_after":0,"degrade":false,)"
      R"("degrade_factor":0.29443699210215085,)"
      R"("degrade_frac":0.4877427629175496,)"
      R"("degrade_duration":8.520276129362351,"block_loss":false,)"
      R"("block_loss_frac":0.3672681918136813,"transport":0,"adaptive":0,)"
      R"("coded":1})");
  const CheckResult r = simcheck::RunEngineCheck(cfg);
  EXPECT_TRUE(r.ok()) << Describe(r);
}

// ---------------------------------------------------------------------------
// Direct root-cause pins.
// ---------------------------------------------------------------------------

// Bug 2's mechanism, asserted structurally: every datacenter gets exactly
// partitions_per_dc partitions and all of them live on worker nodes, even
// when a non-worker driver shares the datacenter.
TEST(SimcheckRegressionTest, ParallelizeSkipsDriverInRoundRobin) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddNode({"w0", 0, 2, Gbps(1)});
  topo.AddNode({"w1a", 1, 2, Gbps(1)});
  topo.AddNode({"w1b", 1, 2, Gbps(1)});
  topo.AddNode({"driver", 0, 4, Gbps(1), /*worker=*/false});
  topo.AddWanLink({0, 1, MiB(10), MiB(10), MiB(10), Millis(50)});
  topo.AddWanLink({1, 0, MiB(10), MiB(10), MiB(10), Millis(50)});

  RunConfig cfg;
  cfg.cost = CostModel{}.Scaled(100);
  GeoCluster cluster(std::move(topo), cfg);
  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back({"k" + std::to_string(i % 7), std::int64_t{1}});
  }
  const int kPerDc = 3;
  Dataset data = cluster.Parallelize("in", records, kPerDc);
  const auto& src = static_cast<const SourceRdd&>(*data.rdd());
  std::vector<int> per_dc(2, 0);
  for (int p = 0; p < src.num_partitions(); ++p) {
    const NodeIndex node = src.partition(p).node;
    ASSERT_TRUE(cluster.topology().node(node).worker)
        << "partition " << p << " landed on non-worker "
        << cluster.topology().node(node).name;
    ++per_dc[cluster.topology().dc_of(node)];
  }
  EXPECT_EQ(per_dc[0], kPerDc);
  EXPECT_EQ(per_dc[1], kPerDc);
}

// Bug 3's mechanism: a kDcOnly task whose datacenter still has one live
// worker must keep waiting for it, while one whose preferred datacenters
// are completely dead spills anywhere after the locality wait.
TEST(SimcheckRegressionTest, DcOnlySpillsOnlyWhenDatacenterIsDead) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"b0", 1, 1, Gbps(1)});
  topo.AddNode({"b1", 1, 1, Gbps(1)});

  Simulator sim;
  TaskScheduler sched(sim, topo);
  NodeIndex got = kNoNode;
  double got_at = -1;

  // Fill b0 and b1 so the kDcOnly task has to queue.
  for (int i = 0; i < 2; ++i) {
    TaskRequest filler;
    filler.preferred = {static_cast<NodeIndex>(1 + i)};
    filler.policy = PlacementPolicy::kNodeOnly;
    filler.on_assigned = [](NodeIndex, LocalityLevel) {};
    sched.Submit(std::move(filler));
  }
  TaskRequest pinned;
  pinned.preferred = {1};
  pinned.policy = PlacementPolicy::kDcOnly;
  pinned.on_assigned = [&](NodeIndex node, LocalityLevel) {
    got = node;
    got_at = sim.Now();
  };
  sched.Submit(std::move(pinned));

  // b0 dies but b1 is merely busy: kDcOnly must NOT spill to dc0, even
  // long after the locality wait.
  sim.ScheduleAt(Seconds(1), [&] { sched.SetNodeDown(1); });
  sim.Run();
  EXPECT_EQ(got, kNoNode) << "spilled despite a live in-DC worker";

  // The last in-DC worker dies too: now (past the wait) it spills to dc0.
  sched.SetNodeDown(2);
  sim.Run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(got_at, 6.0);  // default locality wait
}

// Bug 4's mechanism: submit at a time where (t + wait) - t rounds below
// wait in double arithmetic. The wait-expiry wake-up is the final event,
// so a one-ulp miss leaves the task queued forever (the old code's sim
// drained with the task unassigned; Run() then simply returned).
TEST(SimcheckRegressionTest, LocalityWaitWakeupAssignsExactly) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"b0", 1, 1, Gbps(1)});

  Simulator sim;
  TaskScheduler sched(sim, topo);
  // (t + 6.0) - t == 5.999999999999999 for this t.
  const double t = 3.0540481794857657;
  ASSERT_LT((t + 6.0) - t, 6.0);

  NodeIndex got = kNoNode;
  sim.ScheduleAt(t, [&] {
    sched.SetNodeDown(1);  // the preferred node (and its whole DC) is dead
    TaskRequest req;
    req.preferred = {1};
    req.policy = PlacementPolicy::kAnyAfterWait;
    req.on_assigned = [&](NodeIndex node, LocalityLevel) { got = node; };
    sched.Submit(std::move(req));
  });
  sim.Run();
  EXPECT_EQ(got, 0) << "locality-wait wake-up failed to assign";
  EXPECT_EQ(sched.queued_tasks(), 0);
}

}  // namespace
}  // namespace gs

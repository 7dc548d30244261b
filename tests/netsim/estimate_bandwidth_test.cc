// Network::EstimateWanBandwidth edge cases: zero-utilization windows and
// just-degraded links must report usable, finite headroom — degraded
// capacity with a 5% floor — never 0 or infinity, because the
// bandwidth-aware aggregator ranking divides by the estimate
// (engine/shuffle/receiver_placement.h).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

Topology PairTopo(Rate wan = MiB(1)) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  for (int i = 0; i < 2; ++i) topo.AddNode({"a" + std::to_string(i), 0, 2, MiB(10)});
  for (int i = 0; i < 2; ++i) topo.AddNode({"b" + std::to_string(i), 1, 2, MiB(10)});
  topo.AddWanLink({0, 1, wan, wan, wan, Millis(100)});
  topo.AddWanLink({1, 0, wan, wan, wan, Millis(100)});
  return topo;
}

NetworkConfig Quiet() {
  NetworkConfig cfg;
  cfg.jitter_interval = 0;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

TEST(EstimateWanBandwidthTest, EmptyWindowFallsBackToCurrentCapacity) {
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.EnableUtilization(Seconds(1));
  // No traffic yet: the utilization series has no buckets. The estimate
  // must be the (un-degraded) capacity, not 0 or inf.
  const Rate est = net.EstimateWanBandwidth(0, 1, Seconds(10));
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_DOUBLE_EQ(est, MiB(1));
}

TEST(EstimateWanBandwidthTest, EmptyWindowOnDegradedLinkReportsDegraded) {
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.EnableUtilization(Seconds(1));
  net.SetWanDegradation(0, 1, 0.3);
  const Rate est = net.EstimateWanBandwidth(0, 1, Seconds(10));
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_DOUBLE_EQ(est, 0.3 * MiB(1));
}

TEST(EstimateWanBandwidthTest, FullOutageReportsFiniteNonZero) {
  // Factor 0 collapses even the 5% floor; the absolute 1 B/s backstop must
  // keep division by the estimate finite.
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.EnableUtilization(Seconds(1));
  net.SetWanDegradation(0, 1, 0.0);
  const Rate est = net.EstimateWanBandwidth(0, 1, Seconds(10));
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GT(est, 0.0);
  EXPECT_DOUBLE_EQ(est, 1.0);
}

TEST(EstimateWanBandwidthTest, NoUtilizationCollectionFallsBack) {
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));  // EnableUtilization never called
  const Rate est = net.EstimateWanBandwidth(0, 1, Seconds(10));
  EXPECT_DOUBLE_EQ(est, MiB(1));
  EXPECT_DOUBLE_EQ(net.EstimateWanBandwidth(0, 1, 0), MiB(1));  // window <= 0
}

TEST(EstimateWanBandwidthTest, JustDegradedSaturatedLinkFloorsAtFivePercent) {
  // Saturate the link, then degrade it hard: the trailing window still
  // remembers full-rate delivery, so current - delivered goes negative.
  // The estimate must floor at 5% of the *degraded* capacity, not go to 0
  // (or negative), and must stay finite.
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.EnableUtilization(Seconds(1));
  net.StartFlow(0, 2, MiB(30), FlowKind::kOther, [] {});
  sim.ScheduleAt(Seconds(8), [&] {
    net.SetWanDegradation(0, 1, 0.2);
    const Rate current = 0.2 * MiB(1);
    const Rate est = net.EstimateWanBandwidth(0, 1, Seconds(5));
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GT(est, 0.0);
    EXPECT_DOUBLE_EQ(est, 0.05 * current);
  });
  sim.Run();
}

TEST(EstimateWanBandwidthTest, IdleTrailingWindowRecoversTowardCapacity) {
  // Deliver for a while, then let the link idle: buckets in the window are
  // zero-utilization, so the estimate must climb back toward capacity
  // rather than report stale congestion forever.
  Simulator sim;
  Topology topo = PairTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.EnableUtilization(Seconds(1));
  net.StartFlow(0, 2, MiB(3), FlowKind::kOther, [] {});
  // A second flow that finishes before the busy probe: its completion
  // reconfigures the link and flushes delivered-byte attribution into the
  // utilization buckets (attribution is deferred to network events).
  net.StartFlow(1, 3, KiB(512), FlowKind::kOther, [] {});
  Rate busy = 0, idle = 0;
  sim.ScheduleAt(Seconds(2), [&] {
    busy = net.EstimateWanBandwidth(0, 1, Seconds(4));
  });
  sim.ScheduleAt(Seconds(40), [&] {
    idle = net.EstimateWanBandwidth(0, 1, Seconds(4));
  });
  sim.Run();
  EXPECT_GT(busy, 0.0);
  EXPECT_LT(busy, MiB(1));  // mid-transfer: visible congestion
  EXPECT_GT(idle, 0.9 * MiB(1)) << "stale congestion never aged out";
}

}  // namespace
}  // namespace gs

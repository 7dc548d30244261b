#include "netsim/network.h"

#include <gtest/gtest.h>

#include "simcore/simulator.h"

namespace gs {
namespace {

// Two datacenters, two nodes each, deterministic capacities.
Topology TestTopo(Rate nic = MiB(10), Rate wan = MiB(1),
                  SimTime rtt = Millis(100)) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  for (int i = 0; i < 2; ++i) topo.AddNode({"a" + std::to_string(i), 0, 2, nic});
  for (int i = 0; i < 2; ++i) topo.AddNode({"b" + std::to_string(i), 1, 2, nic});
  topo.AddWanLink({0, 1, wan, wan, wan, rtt});
  topo.AddWanLink({1, 0, wan, wan, wan, rtt});
  return topo;
}

NetworkConfig Quiet() {
  NetworkConfig cfg;
  cfg.jitter_interval = 0;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

struct Fixture {
  Simulator sim;
  Topology topo;
  Network net;
  explicit Fixture(Topology t, NetworkConfig cfg = Quiet())
      : topo(std::move(t)), net(sim, topo, cfg, Rng(1)) {}
};

TEST(NetworkTest, SingleWanFlowTakesBytesOverCapacityPlusLatency) {
  Fixture f(TestTopo());
  double done_at = -1;
  f.net.StartFlow(0, 2, MiB(2), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  // 2 MiB over 1 MiB/s + 50 ms one-way setup.
  EXPECT_NEAR(done_at, 2.0 + 0.05, 1e-6);
}

TEST(NetworkTest, IntraDcFlowUsesNicCapacity) {
  Fixture f(TestTopo());
  double done_at = -1;
  f.net.StartFlow(0, 1, MiB(10), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 1.0 + 0.00025, 1e-4);  // 10 MiB / 10 MiB/s + rtt/2
}

TEST(NetworkTest, LoopbackFlowIsImmediate) {
  Fixture f(TestTopo());
  double done_at = -1;
  f.net.StartFlow(0, 0, GiB(1), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_LT(done_at, 0.01);
  // Loopback does not touch the meter.
  EXPECT_EQ(f.net.meter().cross_dc_total(), 0);
}

TEST(NetworkTest, TwoFlowsShareWanLinkFairly) {
  Fixture f(TestTopo());
  double first = -1, second = -1;
  // Same size, same start: both should finish at bytes*2/capacity.
  f.net.StartFlow(0, 2, MiB(1), FlowKind::kOther,
                  [&] { first = f.sim.Now(); });
  f.net.StartFlow(1, 3, MiB(1), FlowKind::kOther,
                  [&] { second = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(first, 2.0 + 0.05, 1e-6);
  EXPECT_NEAR(second, 2.0 + 0.05, 1e-6);
}

TEST(NetworkTest, ShorterFlowFinishesFirstThenLongerSpeedsUp) {
  Fixture f(TestTopo());
  double small_done = -1, big_done = -1;
  f.net.StartFlow(0, 2, MiB(1), FlowKind::kOther,
                  [&] { small_done = f.sim.Now(); });
  f.net.StartFlow(1, 3, MiB(3), FlowKind::kOther,
                  [&] { big_done = f.sim.Now(); });
  f.sim.Run();
  // Shared at 0.5 MiB/s until the 1 MiB flow ends at t=2+eps; the 3 MiB
  // flow then has 2 MiB left at full 1 MiB/s: total ~4 + setup.
  EXPECT_NEAR(small_done, 2.0 + 0.05, 1e-6);
  EXPECT_NEAR(big_done, 4.0 + 0.05, 1e-6);
}

TEST(NetworkTest, NicCanBeTheBottleneck) {
  // WAN faster than the receiving NIC.
  Fixture f(TestTopo(/*nic=*/MiB(1), /*wan=*/MiB(100)));
  double done_at = -1;
  f.net.StartFlow(0, 2, MiB(2), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 2.0 + 0.05, 1e-6);
}

TEST(NetworkTest, MeterAccountsPerKindAndPair) {
  Fixture f(TestTopo());
  f.net.StartFlow(0, 2, MiB(1), FlowKind::kShufflePush, [] {});
  f.net.StartFlow(2, 0, MiB(2), FlowKind::kShuffleFetch, [] {});
  f.net.StartFlow(0, 1, MiB(4), FlowKind::kOther, [] {});  // intra-DC
  f.sim.Run();
  const TrafficMeter& m = f.net.meter();
  EXPECT_EQ(m.cross_dc_total(), MiB(3));
  EXPECT_EQ(m.cross_dc_of_kind(FlowKind::kShufflePush), MiB(1));
  EXPECT_EQ(m.cross_dc_of_kind(FlowKind::kShuffleFetch), MiB(2));
  EXPECT_EQ(m.pair_bytes(0, 1), MiB(1));
  EXPECT_EQ(m.pair_bytes(1, 0), MiB(2));
  EXPECT_EQ(m.pair_bytes(0, 0), MiB(4));  // intra-DC tracked but not cross
}

TEST(NetworkTest, CancelledFlowNeverCompletes) {
  Fixture f(TestTopo());
  bool completed = false;
  FlowId id = f.net.StartFlow(0, 2, MiB(10), FlowKind::kOther,
                              [&] { completed = true; });
  f.sim.Schedule(1.0, [&] { f.net.CancelFlow(id); });
  f.sim.Run();
  EXPECT_FALSE(completed);
  EXPECT_FALSE(f.net.has_flow(id));
}

TEST(NetworkTest, CancelFreesBandwidthForOthers) {
  Fixture f(TestTopo());
  double done_at = -1;
  FlowId big = f.net.StartFlow(0, 2, GiB(1), FlowKind::kOther, [] {});
  f.net.StartFlow(1, 3, MiB(2), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Schedule(0.5, [&] { f.net.CancelFlow(big); });
  f.sim.Run();
  // Shared 0.5 MiB/s for ~0.45s after setup, then full speed.
  EXPECT_LT(done_at, 2.5);
}

TEST(NetworkTest, ZeroByteFlowCompletesAfterLatency) {
  Fixture f(TestTopo());
  double done_at = -1;
  f.net.StartFlow(0, 2, 0, FlowKind::kOther, [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 0.05, 1e-6);
}

TEST(NetworkTest, JitterKeepsCapacityWithinEnvelope) {
  NetworkConfig cfg;
  cfg.jitter_interval = 0.5;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  Topology topo;
  topo.AddDatacenter("a");
  topo.AddDatacenter("b");
  topo.AddNode({"a0", 0, 2, MiB(100)});
  topo.AddNode({"b0", 1, 2, MiB(100)});
  topo.AddWanLink({0, 1, MiB(2), MiB(1), MiB(3), Millis(10)});
  topo.AddWanLink({1, 0, MiB(2), MiB(1), MiB(3), Millis(10)});
  Simulator sim;
  Network net(sim, topo, cfg, Rng(5));
  net.StartFlow(0, 1, MiB(200), FlowKind::kOther, [] {});
  bool moved = false;
  Rate initial = net.wan_capacity(0, 1);
  for (int i = 1; i <= 40; ++i) {
    sim.RunUntil(i * 0.5);
    Rate c = net.wan_capacity(0, 1);
    EXPECT_GE(c, MiB(1) * 0.999);
    EXPECT_LE(c, MiB(3) * 1.001);
    moved = moved || c != initial;
  }
  EXPECT_TRUE(moved) << "capacity never changed despite jitter";
  sim.Run();
}

TEST(NetworkTest, SameSeedSameCompletionTimes) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    Topology topo = Ec2SixRegionTopology(100);
    NetworkConfig cfg;  // jitter + stalls on
    Network net(sim, topo, cfg, Rng(seed));
    std::vector<double> done;
    Rng traffic(3);
    for (int i = 0; i < 20; ++i) {
      NodeIndex src = static_cast<NodeIndex>(traffic.UniformInt(0, 23));
      NodeIndex dst = static_cast<NodeIndex>(traffic.UniformInt(0, 23));
      net.StartFlow(src, dst, KiB(512), FlowKind::kOther,
                    [&done, &sim] { done.push_back(sim.Now()); });
    }
    sim.Run();
    return done;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(NetworkTest, PerFlowCapLimitsLoneFlow) {
  NetworkConfig cfg = Quiet();
  cfg.wan_flow_efficiency_min = 0.5;  // caps drawn in [0.5, 1] x base
  Fixture f(TestTopo(), cfg);
  double done_at = -1;
  f.net.StartFlow(0, 2, MiB(10), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  // With a cap in [0.5, 1] the flow takes between 10s and 20s (+setup).
  EXPECT_GE(done_at, 10.0);
  EXPECT_LE(done_at, 20.1);
}

TEST(NetworkTest, StallDelaysFlowStart) {
  NetworkConfig cfg = Quiet();
  cfg.wan_stall_prob = 1.0;  // every WAN flow stalls
  Fixture f(TestTopo(), cfg);
  double done_at = -1;
  f.net.StartFlow(0, 2, MiB(1), FlowKind::kOther,
                  [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  // Transfer 1 s + one-way latency 0.05 s + a stall in [2 s, 10 s].
  EXPECT_GE(done_at, 1.0 + 0.05 + kWanStallMin - 1e-6);
  EXPECT_LE(done_at, 1.0 + 0.05 + kWanStallMax + 1e-6);
}

TEST(NetworkTest, DrainsToEmptyQueueWithJitterOn) {
  // Jitter must not keep the simulator alive once flows are done.
  NetworkConfig cfg;  // default: jitter on
  Fixture f(TestTopo(), cfg);
  f.net.StartFlow(0, 2, MiB(1), FlowKind::kOther, [] {});
  f.sim.Run();  // must terminate
  EXPECT_EQ(f.net.active_flows(), 0);
  EXPECT_EQ(f.sim.pending_events(), 0u);
}

}  // namespace
}  // namespace gs

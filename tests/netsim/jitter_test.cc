// WAN capacity jitter traces: envelope, determinism, lazy catch-up
// semantics.
#include <gtest/gtest.h>

#include "netsim/network.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

Topology OneLinkTopo(Rate base, Rate min, Rate max) {
  Topology topo;
  topo.AddDatacenter("a");
  topo.AddDatacenter("b");
  topo.AddNode({"a0", 0, 2, MiB(1000)});
  topo.AddNode({"b0", 1, 2, MiB(1000)});
  topo.AddWanLink({0, 1, base, min, max, Millis(10)});
  topo.AddWanLink({1, 0, base, min, max, Millis(10)});
  return topo;
}

NetworkConfig JitterCfg(SimTime interval) {
  NetworkConfig cfg;
  cfg.jitter_interval = interval;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

std::vector<double> SampleTrace(std::uint64_t seed, int samples) {
  Simulator sim;
  Topology topo = OneLinkTopo(MiB(10), MiB(4), MiB(16));
  Network net(sim, topo, JitterCfg(1.0), Rng(seed));
  std::vector<double> trace;
  for (int i = 1; i <= samples; ++i) {
    sim.RunUntil(static_cast<double>(i));
    trace.push_back(net.wan_capacity(0, 1));
  }
  return trace;
}

TEST(JitterTest, TraceStaysWithinEnvelope) {
  for (double v : SampleTrace(3, 200)) {
    EXPECT_GE(v, MiB(4) * 0.999);
    EXPECT_LE(v, MiB(16) * 1.001);
  }
}

TEST(JitterTest, TraceIsDeterministicPerSeed) {
  EXPECT_EQ(SampleTrace(7, 50), SampleTrace(7, 50));
  EXPECT_NE(SampleTrace(7, 50), SampleTrace(8, 50));
}

TEST(JitterTest, DisabledJitterKeepsBaseRate) {
  Simulator sim;
  Topology topo = OneLinkTopo(MiB(10), MiB(4), MiB(16));
  Network net(sim, topo, JitterCfg(0), Rng(3));
  for (int i = 1; i <= 20; ++i) {
    sim.RunUntil(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(net.wan_capacity(0, 1), MiB(10));
  }
}

TEST(JitterTest, CatchUpIsConsistentWithSteppedObservation) {
  // Observing capacity only at t=100 must give the same value as watching
  // the trace continuously (the lazy catch-up draws the same sequence).
  auto observe_late = [] {
    Simulator sim;
    Topology topo = OneLinkTopo(MiB(10), MiB(4), MiB(16));
    Network net(sim, topo, JitterCfg(1.0), Rng(11));
    sim.RunUntil(100.0);
    return net.wan_capacity(0, 1);
  };
  auto observe_stepwise = [] {
    Simulator sim;
    Topology topo = OneLinkTopo(MiB(10), MiB(4), MiB(16));
    Network net(sim, topo, JitterCfg(1.0), Rng(11));
    double last = 0;
    for (int i = 1; i <= 100; ++i) {
      sim.RunUntil(static_cast<double>(i));
      last = net.wan_capacity(0, 1);
    }
    return last;
  };
  EXPECT_DOUBLE_EQ(observe_late(), observe_stepwise());
}

TEST(JitterTest, MeanStaysNearBase) {
  auto trace = SampleTrace(13, 500);
  double mean = 0;
  for (double v : trace) mean += v;
  mean /= static_cast<double>(trace.size());
  EXPECT_NEAR(mean, MiB(10), MiB(2));
}

}  // namespace
}  // namespace gs

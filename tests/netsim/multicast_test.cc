// StartMulticastFlow: one WAN leg per distinct receiving datacenter,
// max-min shared with unicast traffic, and — the invariant the coded
// shuffle leans on — bit-for-bit byte conservation between the traffic
// meter and the utilization timeseries, including mid-transfer WAN flaps
// (docs/CODED.md).
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "netsim/network.h"
#include "netsim/utilization.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

// Three datacenters, two nodes each, deterministic capacities.
Topology TriTopo(Rate nic = MiB(10), Rate wan = MiB(1),
                 SimTime rtt = Millis(100)) {
  Topology topo;
  for (int d = 0; d < 3; ++d) topo.AddDatacenter("dc" + std::to_string(d));
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 2; ++i) {
      topo.AddNode({"n" + std::to_string(d) + "-" + std::to_string(i), d, 2,
                    nic});
    }
  }
  for (DcIndex s = 0; s < 3; ++s) {
    for (DcIndex t = 0; t < 3; ++t) {
      if (s != t) topo.AddWanLink({s, t, wan, wan, wan, rtt});
    }
  }
  return topo;
}

NetworkConfig Quiet() {
  NetworkConfig cfg;
  cfg.jitter_interval = 0;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

void ExpectConservation(const Network& net, const Topology& topo) {
  const LinkUtilization* util = net.utilization();
  ASSERT_NE(util, nullptr);
  for (int l = 0; l < topo.num_wan_links(); ++l) {
    const WanLinkSpec& spec = topo.wan_link(l);
    const Bytes metered = net.meter().pair_bytes(spec.src, spec.dst);
    const auto& buckets = util->buckets(l);
    const Bytes summed =
        std::accumulate(buckets.begin(), buckets.end(), Bytes{0});
    EXPECT_EQ(summed, metered) << "link " << spec.src << "->" << spec.dst
                               << " leaks bytes";
    EXPECT_EQ(util->total(l), metered);
  }
}

TEST(MulticastFlowTest, OneLegPerDistinctReceivingDatacenter) {
  Simulator sim;
  Topology topo = TriTopo();
  MetricsRegistry registry;
  Network net(sim, topo, Quiet(), Rng(1), &registry);
  net.EnableUtilization(Seconds(1));
  int completions = 0;
  // Nodes 2 and 3 share dc1; dedup must collapse them into one leg. Node 0
  // is the source's own node: a loopback leg, no WAN bytes.
  net.StartMulticastFlow(0, {2, 3, 4, 0}, KiB(600),
                         FlowKind::kCodedMulticast, [&] { ++completions; });
  sim.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(registry.counter("netsim.multicasts_started").value(), 1);
  EXPECT_EQ(registry.counter("netsim.multicasts_completed").value(), 1);
  EXPECT_EQ(registry.counter("netsim.multicast_legs").value(), 3);
  EXPECT_EQ(net.meter().pair_bytes(0, 1), KiB(600));  // once, not twice
  EXPECT_EQ(net.meter().pair_bytes(0, 2), KiB(600));
  EXPECT_EQ(net.meter().pair_bytes(0, 0), KiB(600));  // loopback diagonal
  EXPECT_EQ(net.meter().cross_dc_of_kind(FlowKind::kCodedMulticast),
            2 * KiB(600));
  ExpectConservation(net, topo);
}

TEST(MulticastFlowTest, CompletesOnlyAfterTheSlowestLeg) {
  // Degrading one leg's link must delay the group callback until that leg
  // finishes, not just the fast majority.
  Simulator sim;
  Topology topo = TriTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  net.SetWanDegradation(0, 2, 0.1);
  SimTime done_at = -1;
  net.StartMulticastFlow(0, {2, 4}, KiB(500), FlowKind::kCodedMulticast,
                         [&] { done_at = sim.Now(); });
  SimTime fast_leg_floor = -1;
  net.StartFlow(0, 2, KiB(500), FlowKind::kOther,
                [&] { fast_leg_floor = sim.Now(); });
  sim.Run();
  ASSERT_GE(done_at, 0.0);
  ASSERT_GE(fast_leg_floor, 0.0);
  EXPECT_GT(done_at, fast_leg_floor)
      << "group fired before its degraded leg could have finished";
}

TEST(MulticastFlowTest, ConservationHoldsAcrossMidTransferFlaps) {
  // Flap the two WAN links carrying legs — full outage, then restore —
  // while unicast cross-traffic shares the same links. Every byte must
  // still land in a bucket and match the meter exactly.
  Simulator sim;
  Topology topo = TriTopo();
  MetricsRegistry registry;
  Network net(sim, topo, Quiet(), Rng(3), &registry);
  net.EnableUtilization(Seconds(0.5));
  int completions = 0;
  net.StartMulticastFlow(0, {2, 4}, MiB(2) + 331, FlowKind::kCodedMulticast,
                         [&] { ++completions; });
  net.StartFlow(1, 3, MiB(1) + 77, FlowKind::kShuffleFetch, [&] {});
  sim.ScheduleAt(Seconds(0.4), [&] { net.SetWanDegradation(0, 1, 0.0); });
  sim.ScheduleAt(Seconds(0.9), [&] { net.SetWanDegradation(0, 2, 0.05); });
  sim.ScheduleAt(Seconds(2.5), [&] { net.SetWanDegradation(0, 1, 1.0); });
  sim.ScheduleAt(Seconds(3.0), [&] { net.SetWanDegradation(0, 2, 1.0); });
  sim.Run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(net.active_flows(), 0);
  ExpectConservation(net, topo);
}

TEST(MulticastFlowTest, SharesMaxMinWithUnicastOnTheSameLink) {
  // A multicast leg is an ordinary flow: with one unicast flow on the same
  // link, each should get about half the link, so the pair takes roughly
  // twice as long as an uncontended transfer of the same size.
  Simulator sim;
  Topology topo = TriTopo();
  Network net(sim, topo, Quiet(), Rng(1));
  SimTime alone = -1;
  net.StartFlow(0, 2, MiB(1), FlowKind::kOther, [&] { alone = sim.Now(); });
  sim.Run();
  SimTime contended = -1;
  net.StartMulticastFlow(0, {2}, MiB(1), FlowKind::kCodedMulticast,
                         [&] { contended = sim.Now(); });
  net.StartFlow(1, 3, MiB(1), FlowKind::kOther, [] {});
  sim.Run();
  ASSERT_GT(alone, 0.0);
  ASSERT_GT(contended, alone);
  EXPECT_GT(contended - alone, 1.6 * alone)
      << "leg did not share the link max-min with the unicast flow";
}

}  // namespace
}  // namespace gs

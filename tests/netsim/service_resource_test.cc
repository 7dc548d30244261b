// Service resources and the FlowSpec StartFlow overload: the netsim
// surface the object-store and fabric transports build on (store tiers,
// RDMA fabrics). A service resource is an extra max-min-shared capacity
// appended after the NIC and WAN resources; FlowSpec flows can skip either
// endpoint NIC, ride a service resource, and add request latency to the
// connection setup.
#include <gtest/gtest.h>

#include "common/check.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

Topology TestTopo(Rate nic = MiB(10), Rate wan = MiB(1),
                  SimTime rtt = Millis(100)) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  for (int i = 0; i < 2; ++i) {
    topo.AddNode({"a" + std::to_string(i), 0, 2, nic});
  }
  for (int i = 0; i < 2; ++i) {
    topo.AddNode({"b" + std::to_string(i), 1, 2, nic});
  }
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

TEST(ServiceResourceTest, ServiceResourceCapsAnIntraDcFlow) {
  Fixture f(TestTopo());
  const int res = f.net.AddServiceResource(MiB(2));
  Network::FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = MiB(4);
  spec.service_res = res;
  double done_at = -1;
  f.net.StartFlow(spec, [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  // NICs are 10 MiB/s; the 2 MiB/s service tier is the bottleneck.
  EXPECT_NEAR(done_at, 2.0 + 0.00025, 1e-4);
}

TEST(ServiceResourceTest, ServiceFlowsShareTheTierFairly) {
  Fixture f(TestTopo());
  const int res = f.net.AddServiceResource(MiB(2));
  double first = -1, second = -1;
  for (int i = 0; i < 2; ++i) {
    Network::FlowSpec spec;
    spec.src = i;          // distinct senders: NICs don't contend
    spec.dst = 1 - i;
    spec.bytes = MiB(2);
    spec.service_res = res;
    f.net.StartFlow(spec, [&, i] {
      (i == 0 ? first : second) = f.sim.Now();
    });
  }
  f.sim.Run();
  // 2 + 2 MiB through a shared 2 MiB/s tier: both take ~2 s.
  EXPECT_NEAR(first, 2.0 + 0.00025, 1e-4);
  EXPECT_NEAR(second, 2.0 + 0.00025, 1e-4);
}

TEST(ServiceResourceTest, SkippingNicsLeavesOnlyTheService) {
  // Tier faster than the NICs: with both NIC legs skipped (the fabric
  // model), the flow runs at tier rate, above what the NICs would allow.
  Fixture f(TestTopo(/*nic=*/MiB(10)));
  const int res = f.net.AddServiceResource(MiB(40));
  Network::FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = MiB(40);
  spec.src_uplink = false;
  spec.dst_downlink = false;
  spec.service_res = res;
  double done_at = -1;
  f.net.StartFlow(spec, [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 1.0 + 0.00025, 1e-4);  // 40 MiB / 40 MiB/s
}

TEST(ServiceResourceTest, ExtraSetupDelaysTheFlow) {
  Fixture f(TestTopo());
  const int res = f.net.AddServiceResource(MiB(2));
  Network::FlowSpec base;
  base.src = 0;
  base.dst = 1;
  base.bytes = MiB(2);
  base.service_res = res;
  double plain = -1, delayed = -1;
  f.net.StartFlow(base, [&] { plain = f.sim.Now(); });
  f.sim.Run();
  Fixture g(TestTopo());
  const int res2 = g.net.AddServiceResource(MiB(2));
  base.service_res = res2;
  base.extra_setup = Millis(30);
  g.net.StartFlow(base, [&] { delayed = g.sim.Now(); });
  g.sim.Run();
  EXPECT_NEAR(delayed - plain, 0.030, 1e-6);
}

TEST(ServiceResourceTest, WanLegStillAppliesAcrossDatacenters) {
  Fixture f(TestTopo());
  const int res = f.net.AddServiceResource(MiB(50));
  Network::FlowSpec spec;
  spec.src = 0;
  spec.dst = 2;  // dc0 -> dc1 over the 1 MiB/s WAN link
  spec.bytes = MiB(2);
  // A cross-DC staged leg skips one NIC (here the receiver's, like a PUT
  // into a remote store tier): a flow composes at most 3 resources.
  spec.dst_downlink = false;
  spec.service_res = res;
  double done_at = -1;
  f.net.StartFlow(spec, [&] { done_at = f.sim.Now(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 2.0 + 0.05, 1e-6);
  // The WAN crossing is metered like any other flow (conservation).
  EXPECT_EQ(f.net.meter().pair_bytes(0, 1), MiB(2));
}

TEST(ServiceResourceTest, SpecFlowsAreMeteredByKind) {
  Fixture f(TestTopo());
  const int res = f.net.AddServiceResource(MiB(50));
  Network::FlowSpec spec;
  spec.src = 0;
  spec.dst = 2;
  spec.bytes = MiB(3);
  spec.kind = FlowKind::kStoreGet;
  spec.src_uplink = false;  // GETs leave the store tier, not a worker NIC
  spec.service_res = res;
  f.net.StartFlow(spec, [] {});
  f.sim.Run();
  EXPECT_EQ(f.net.meter().total_of_kind(FlowKind::kStoreGet), MiB(3));
  EXPECT_EQ(f.net.meter().store_pair_bytes(0, 1), MiB(3));
  // Store bytes stay inside pair_bytes so byte conservation holds.
  EXPECT_EQ(f.net.meter().pair_bytes(0, 1), MiB(3));
}

TEST(ServiceResourceTest, ResourcelessSpecCompletesLikeLoopback) {
  // Two specs compose no resource: the same node (no NICs, no WAN), and
  // two nodes of one DC with both NICs skipped and no service tier.
  for (const NodeIndex dst : {NodeIndex{0}, NodeIndex{1}}) {
    SCOPED_TRACE(dst);
    Fixture f(TestTopo());
    Network::FlowSpec spec;
    spec.src = 0;
    spec.dst = dst;
    spec.bytes = GiB(1);
    spec.src_uplink = false;
    spec.dst_downlink = false;
    double done_at = -1;
    f.net.StartFlow(spec, [&] { done_at = f.sim.Now(); });
    bool cancelled_fired = false;
    const FlowId cancelled =
        f.net.StartFlow(spec, [&] { cancelled_fired = true; });
    f.net.CancelFlow(cancelled);
    f.sim.Run();
    EXPECT_NEAR(done_at, Millis(0.1), 1e-9);  // loopback latency
    EXPECT_FALSE(cancelled_fired);
    EXPECT_EQ(f.net.active_flows(), 0);
    // Both flows are metered on the intra-DC diagonal, the cancelled one
    // included (its never-sent bytes are settled, not un-metered).
    EXPECT_EQ(f.net.meter().pair_bytes(0, 0), 2 * GiB(1));
  }
}

TEST(ServiceResourceTest, RegistrationAfterFirstFlowThrows) {
  Fixture f(TestTopo());
  f.net.StartFlow(0, 1, MiB(1), FlowKind::kOther, [] {});
  EXPECT_THROW(f.net.AddServiceResource(MiB(1)), CheckFailure);
}

TEST(ServiceResourceTest, NonPositiveCapacityThrows) {
  Fixture f(TestTopo());
  EXPECT_THROW(f.net.AddServiceResource(0), CheckFailure);
  EXPECT_THROW(f.net.AddServiceResource(-MiB(1)), CheckFailure);
}

}  // namespace
}  // namespace gs

// Property tests of the max-min fair-share allocator: on randomized
// topologies and flow sets, no resource is ever oversubscribed, every flow
// gets a positive rate once started, all flows eventually complete, and a
// lone bottleneck is fully utilized.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

NetworkConfig Quiet() {
  NetworkConfig cfg;
  cfg.jitter_interval = 0;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

Topology RandomTopology(Rng& rng) {
  Topology topo;
  const int dcs = static_cast<int>(rng.UniformInt(2, 5));
  for (int d = 0; d < dcs; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
    const int nodes = static_cast<int>(rng.UniformInt(1, 4));
    for (int n = 0; n < nodes; ++n) {
      const Rate nic = MiB(rng.UniformInt(2, 20));
      topo.AddNode({"n", d, 2, nic});
    }
  }
  for (DcIndex a = 0; a < dcs; ++a) {
    for (DcIndex b = 0; b < dcs; ++b) {
      if (a == b) continue;
      Rate r = MiB(rng.UniformInt(1, 5));
      topo.AddWanLink({a, b, r, r, r, Millis(rng.UniformInt(1, 200))});
    }
  }
  return topo;
}

class FairnessPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FairnessPropertyTest, AllFlowsCompleteAndConservationHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Simulator sim;
  Topology topo = RandomTopology(rng);
  Network net(sim, topo, Quiet(), rng.Split("net"));

  const int num_flows = static_cast<int>(rng.UniformInt(1, 40));
  Bytes total_bytes = 0;
  int completed = 0;
  for (int i = 0; i < num_flows; ++i) {
    NodeIndex src =
        static_cast<NodeIndex>(rng.UniformInt(0, topo.num_nodes() - 1));
    NodeIndex dst =
        static_cast<NodeIndex>(rng.UniformInt(0, topo.num_nodes() - 1));
    Bytes bytes = KiB(rng.UniformInt(1, 4096));
    total_bytes += bytes;  // loopback flows are metered on the diagonal
    double start = rng.Uniform(0, 5);
    sim.Schedule(start, [&net, &completed, src, dst, bytes] {
      net.StartFlow(src, dst, bytes, FlowKind::kOther,
                    [&completed] { ++completed; });
    });
  }
  sim.Run();
  EXPECT_EQ(completed, num_flows);
  EXPECT_EQ(net.active_flows(), 0);
  // Conservation: every cross/intra-DC byte is metered exactly once.
  Bytes metered = 0;
  for (DcIndex a = 0; a < topo.num_datacenters(); ++a) {
    for (DcIndex b = 0; b < topo.num_datacenters(); ++b) {
      metered += net.meter().pair_bytes(a, b);
    }
  }
  EXPECT_EQ(metered, total_bytes);
}

TEST_P(FairnessPropertyTest, ResourcesNeverOversubscribed) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  Simulator sim;
  Topology topo = RandomTopology(rng);
  Network net(sim, topo, Quiet(), rng.Split("net"));

  std::vector<FlowId> ids;
  std::vector<std::pair<NodeIndex, NodeIndex>> endpoints;
  const int num_flows = static_cast<int>(rng.UniformInt(2, 30));
  for (int i = 0; i < num_flows; ++i) {
    NodeIndex src =
        static_cast<NodeIndex>(rng.UniformInt(0, topo.num_nodes() - 1));
    NodeIndex dst =
        static_cast<NodeIndex>(rng.UniformInt(0, topo.num_nodes() - 1));
    if (src == dst) continue;
    ids.push_back(net.StartFlow(src, dst, GiB(1), FlowKind::kOther, [] {}));
    endpoints.emplace_back(src, dst);
  }
  // Let connection setup finish, then inspect instantaneous rates.
  sim.RunUntil(1.0);

  const double eps = 1e-6;
  // Per-node uplink/downlink and per-WAN-link usage.
  std::vector<double> up(topo.num_nodes(), 0), down(topo.num_nodes(), 0);
  std::vector<double> wan(topo.num_wan_links(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    double r = net.flow_rate(ids[i]);
    EXPECT_GT(r, 0) << "started flow got starved";
    auto [src, dst] = endpoints[i];
    up[src] += r;
    down[dst] += r;
    int link = topo.wan_link_index(topo.dc_of(src), topo.dc_of(dst));
    if (link >= 0) wan[link] += r;
  }
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_LE(up[n], topo.node(n).nic_rate * (1 + eps));
    EXPECT_LE(down[n], topo.node(n).nic_rate * (1 + eps));
  }
  for (int l = 0; l < topo.num_wan_links(); ++l) {
    EXPECT_LE(wan[l], topo.wan_link(l).base_rate * (1 + eps));
  }
  // Drain.
  for (FlowId id : ids) net.CancelFlow(id);
  sim.Run();
}

TEST_P(FairnessPropertyTest, SharedBottleneckIsFullyUtilized) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  // Two DCs; all flows cross the single WAN link, which must saturate.
  Topology topo;
  topo.AddDatacenter("a");
  topo.AddDatacenter("b");
  const int nodes = static_cast<int>(rng.UniformInt(2, 4));
  for (int i = 0; i < nodes; ++i) topo.AddNode({"a", 0, 2, MiB(50)});
  for (int i = 0; i < nodes; ++i) topo.AddNode({"b", 1, 2, MiB(50)});
  const Rate wan = MiB(rng.UniformInt(1, 8));
  topo.AddWanLink({0, 1, wan, wan, wan, 0});
  topo.AddWanLink({1, 0, wan, wan, wan, 0});

  Simulator sim;
  Network net(sim, topo, Quiet(), rng.Split("net"));
  std::vector<FlowId> ids;
  const int flows = static_cast<int>(rng.UniformInt(2, 10));
  for (int i = 0; i < flows; ++i) {
    NodeIndex src = static_cast<NodeIndex>(rng.UniformInt(0, nodes - 1));
    NodeIndex dst =
        static_cast<NodeIndex>(nodes + rng.UniformInt(0, nodes - 1));
    ids.push_back(net.StartFlow(src, dst, GiB(1), FlowKind::kOther, [] {}));
  }
  sim.RunUntil(0.5);
  double total = 0;
  for (FlowId id : ids) total += net.flow_rate(id);
  EXPECT_NEAR(total, wan, wan * 1e-6);
  for (FlowId id : ids) net.CancelFlow(id);
  sim.Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessPropertyTest,
                         ::testing::Range(1, 26));

}  // namespace
}  // namespace gs

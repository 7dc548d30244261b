#include "netsim/topology.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gs {
namespace {

TEST(TopologyTest, Ec2SixRegionShape) {
  Topology topo = Ec2SixRegionTopology();
  EXPECT_EQ(topo.num_datacenters(), 6);
  EXPECT_EQ(topo.num_nodes(), 25);  // 24 workers + driver
  EXPECT_EQ(topo.num_wan_links(), 30);  // full directed mesh
  // Four workers per region; the driver is in region 0 and not a worker.
  for (DcIndex dc = 0; dc < 6; ++dc) {
    int workers = 0;
    for (NodeIndex n : topo.nodes_in(dc)) {
      if (topo.node(n).worker) ++workers;
    }
    EXPECT_EQ(workers, 4) << "region " << dc;
  }
  EXPECT_FALSE(topo.node(kEc2DriverNode).worker);
  EXPECT_EQ(topo.dc_of(kEc2DriverNode), 0);
}

TEST(TopologyTest, Ec2CoresMatchM3Large) {
  Topology topo = Ec2SixRegionTopology();
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker) {
      EXPECT_EQ(topo.node(n).cores, 2);
    }
  }
  EXPECT_EQ(topo.cores_in(0), 9);  // 4 workers x 2 + driver's 1 (non-worker)
  EXPECT_EQ(topo.total_cores(), 49);
}

TEST(TopologyTest, Ec2WanRatesWithinMeasuredEnvelope) {
  Topology topo = Ec2SixRegionTopology();
  for (int l = 0; l < topo.num_wan_links(); ++l) {
    const WanLinkSpec& link = topo.wan_link(l);
    EXPECT_GE(link.min_rate, Mbps(80) * 0.99);
    EXPECT_LE(link.max_rate, Mbps(300) * 1.01);
    EXPECT_GE(link.base_rate, link.min_rate);
    EXPECT_LE(link.base_rate, link.max_rate);
    EXPECT_GT(link.rtt, 0);
  }
}

TEST(TopologyTest, WanMeshIsSymmetricInCapacity) {
  Topology topo = Ec2SixRegionTopology();
  for (DcIndex a = 0; a < 6; ++a) {
    for (DcIndex b = 0; b < 6; ++b) {
      if (a == b) {
        EXPECT_EQ(topo.wan_link_index(a, b), -1);
        continue;
      }
      int fwd = topo.wan_link_index(a, b);
      int rev = topo.wan_link_index(b, a);
      ASSERT_GE(fwd, 0);
      ASSERT_GE(rev, 0);
      EXPECT_EQ(topo.wan_link(fwd).base_rate, topo.wan_link(rev).base_rate);
      EXPECT_EQ(topo.wan_link(fwd).rtt, topo.wan_link(rev).rtt);
    }
  }
}

TEST(TopologyTest, ScaleDividesRates) {
  Topology full = Ec2SixRegionTopology(1.0);
  Topology scaled = Ec2SixRegionTopology(100.0);
  EXPECT_DOUBLE_EQ(full.wan_link(0).base_rate / 100.0,
                   scaled.wan_link(0).base_rate);
  EXPECT_DOUBLE_EQ(full.node(0).nic_rate / 100.0, scaled.node(0).nic_rate);
  // RTTs are real time and do not scale.
  EXPECT_EQ(full.wan_link(0).rtt, scaled.wan_link(0).rtt);
}

TEST(TopologyTest, ScaleWanCapacity) {
  Topology topo = Ec2SixRegionTopology();
  Rate before = topo.wan_link(0).base_rate;
  topo.ScaleWanCapacity(2.0);
  EXPECT_DOUBLE_EQ(topo.wan_link(0).base_rate, 2 * before);
}

TEST(TopologyTest, SetWorkerCoresSkipsDriver) {
  Topology topo = Ec2SixRegionTopology();
  topo.SetWorkerCores(0, 1);
  for (NodeIndex n : topo.nodes_in(0)) {
    if (topo.node(n).worker) {
      EXPECT_EQ(topo.node(n).cores, 1);
    } else {
      EXPECT_EQ(topo.node(n).cores, 1);  // driver untouched (was 1)
    }
  }
  EXPECT_EQ(topo.node(topo.nodes_in(1)[0]).cores, 2);
}

TEST(TopologyTest, IntraDcRttIsSmall) {
  Topology topo = Ec2SixRegionTopology();
  EXPECT_LT(topo.rtt(0, 0), Millis(1));
  EXPECT_GT(topo.rtt(0, 4), Millis(100));
}

TEST(TopologyTest, DuplicateWanLinkThrows) {
  Topology topo;
  topo.AddDatacenter("a");
  topo.AddDatacenter("b");
  topo.AddWanLink({0, 1, Mbps(100), Mbps(50), Mbps(200), Millis(10)});
  EXPECT_THROW(
      topo.AddWanLink({0, 1, Mbps(100), Mbps(50), Mbps(200), Millis(10)}),
      CheckFailure);
}

TEST(TopologyTest, SelfLinkThrows) {
  Topology topo;
  topo.AddDatacenter("a");
  EXPECT_THROW(
      topo.AddWanLink({0, 0, Mbps(100), Mbps(50), Mbps(200), Millis(10)}),
      CheckFailure);
}

TEST(TopologyTest, NodeInUnknownDcThrows) {
  Topology topo;
  topo.AddDatacenter("a");
  EXPECT_THROW(topo.AddNode({"n", 3, 2, Gbps(1)}), CheckFailure);
}

TEST(TopologyTest, UniformMeshBuildsAllPairs) {
  Topology topo;
  for (int i = 0; i < 4; ++i) topo.AddDatacenter("dc" + std::to_string(i));
  topo.AddUniformWanMesh(Mbps(100), Mbps(80), Mbps(120), Millis(50));
  EXPECT_EQ(topo.num_wan_links(), 12);
}

}  // namespace
}  // namespace gs

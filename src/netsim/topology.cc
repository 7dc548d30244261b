#include "netsim/topology.h"

#include <utility>

namespace gs {

DcIndex Topology::AddDatacenter(std::string name) {
  dcs_.push_back(DatacenterSpec{std::move(name)});
  dc_nodes_.emplace_back();
  // Grow the WAN index matrix.
  int n = num_datacenters();
  wan_index_.resize(n);
  for (auto& row : wan_index_) row.resize(n, -1);
  return n - 1;
}

NodeIndex Topology::AddNode(NodeSpec spec) {
  GS_CHECK(spec.dc >= 0 && spec.dc < num_datacenters());
  GS_CHECK(spec.cores > 0);
  GS_CHECK(spec.nic_rate > 0);
  nodes_.push_back(spec);
  NodeIndex idx = num_nodes() - 1;
  dc_nodes_[spec.dc].push_back(idx);
  return idx;
}

void Topology::AddWanLink(WanLinkSpec spec) {
  GS_CHECK(spec.src != spec.dst);
  GS_CHECK(spec.src >= 0 && spec.src < num_datacenters());
  GS_CHECK(spec.dst >= 0 && spec.dst < num_datacenters());
  GS_CHECK(spec.min_rate > 0 && spec.min_rate <= spec.base_rate);
  GS_CHECK(spec.base_rate <= spec.max_rate);
  GS_CHECK_MSG(wan_index_[spec.src][spec.dst] == -1,
               "duplicate WAN link " << spec.src << "->" << spec.dst);
  wan_links_.push_back(spec);
  wan_index_[spec.src][spec.dst] = num_wan_links() - 1;
}

void Topology::AddUniformWanMesh(Rate base, Rate min, Rate max, SimTime rtt) {
  for (DcIndex i = 0; i < num_datacenters(); ++i) {
    for (DcIndex j = 0; j < num_datacenters(); ++j) {
      if (i == j) continue;
      AddWanLink(WanLinkSpec{i, j, base, min, max, rtt});
    }
  }
}

int Topology::wan_link_index(DcIndex src, DcIndex dst) const {
  if (src == dst) return -1;
  return wan_index_.at(src).at(dst);
}

SimTime Topology::rtt(DcIndex src, DcIndex dst) const {
  if (src == dst) return Millis(0.5);
  int idx = wan_link_index(src, dst);
  return idx >= 0 ? wan_links_[idx].rtt : Millis(150);
}

void Topology::ScaleWanCapacity(double factor) {
  GS_CHECK(factor > 0);
  for (WanLinkSpec& link : wan_links_) {
    link.base_rate *= factor;
    link.min_rate *= factor;
    link.max_rate *= factor;
  }
}

void Topology::SetWorkerCores(DcIndex dc, int cores) {
  GS_CHECK(cores > 0);
  for (NodeIndex n : nodes_in(dc)) {
    if (nodes_[n].worker) nodes_[n].cores = cores;
  }
}

Topology Ec2SixRegionTopology(double scale) {
  GS_CHECK(scale > 0);
  Topology topo;
  const char* regions[] = {"us-east-1 (N. Virginia)", "us-west-1 (N. California)",
                           "sa-east-1 (Sao Paulo)",   "eu-central-1 (Frankfurt)",
                           "ap-southeast-1 (Singapore)",
                           "ap-southeast-2 (Sydney)"};
  for (const char* r : regions) topo.AddDatacenter(r);

  for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
    for (int k = 0; k < 4; ++k) {
      topo.AddNode(NodeSpec{topo.datacenter(dc).name + "/worker-" +
                                std::to_string(k),
                            dc, 2, Gbps(1) / scale});
    }
  }
  // The driver (Spark master + HDFS NameNode host) lives in N. Virginia and
  // runs no tasks; collect() results flow to it.
  NodeIndex driver = topo.AddNode(
      NodeSpec{"us-east-1/driver", 0, 1, Gbps(1) / scale, /*worker=*/false});
  GS_CHECK(driver == kEc2DriverNode);

  // Pairwise WAN characteristics, loosely following published inter-region
  // measurements: nearby pairs are faster, trans-Pacific/antipodal pairs are
  // slower and jitter within the paper's observed 80-300 Mbps envelope.
  // Rates in Mbps, RTTs in ms; symmetric.
  struct Pair {
    DcIndex a, b;
    double base, min, max, rtt_ms;
  };
  // The ingest region (N. Virginia) enjoys premium connectivity, as the
  // best-connected AWS region of the era.
  const Pair pairs[] = {
      {0, 1, 290, 180, 300, 70},   // Virginia <-> California
      {0, 2, 240, 130, 300, 140},  // Virginia <-> Sao Paulo
      {0, 3, 270, 160, 300, 90},   // Virginia <-> Frankfurt
      {0, 4, 210, 110, 290, 230},  // Virginia <-> Singapore
      {0, 5, 210, 110, 290, 200},  // Virginia <-> Sydney
      {1, 2, 140, 80, 220, 190},   // California <-> Sao Paulo
      {1, 3, 160, 90, 240, 150},   // California <-> Frankfurt
      {1, 4, 180, 100, 260, 175},  // California <-> Singapore
      {1, 5, 180, 100, 260, 140},  // California <-> Sydney
      {2, 3, 140, 80, 220, 200},   // Sao Paulo <-> Frankfurt
      {2, 4, 100, 80, 180, 330},   // Sao Paulo <-> Singapore
      {2, 5, 100, 80, 180, 310},   // Sao Paulo <-> Sydney
      {3, 4, 160, 90, 240, 160},   // Frankfurt <-> Singapore
      {3, 5, 120, 80, 200, 280},   // Frankfurt <-> Sydney
      {4, 5, 200, 110, 280, 95},   // Singapore <-> Sydney
  };
  for (const Pair& p : pairs) {
    WanLinkSpec fwd{p.a,
                    p.b,
                    Mbps(p.base) / scale,
                    Mbps(p.min) / scale,
                    Mbps(p.max) / scale,
                    Millis(p.rtt_ms)};
    WanLinkSpec rev = fwd;
    rev.src = p.b;
    rev.dst = p.a;
    topo.AddWanLink(fwd);
    topo.AddWanLink(rev);
  }
  return topo;
}

}  // namespace gs

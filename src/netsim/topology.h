// Cluster topology: datacenters, worker nodes, NICs and WAN links.
//
// The model follows the paper's testbed (Sec. V-A): a set of geo-distributed
// datacenters, each hosting worker nodes with ~1 Gbps intra-datacenter NICs,
// interconnected by wide-area links whose capacity is far lower (80-300 Mbps)
// and fluctuates over time.
//
// A network flow between two nodes traverses up to three shared resources:
// the sender's uplink NIC, one directed WAN link (when crossing datacenters),
// and the receiver's downlink NIC. Bandwidth on each resource is shared
// max-min fairly among the flows crossing it (see network.h).
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace gs {

struct NodeSpec {
  std::string name;
  DcIndex dc = 0;
  int cores = 2;            // task slots (m3.large has 2 vCPUs)
  Rate nic_rate = Gbps(1);  // per-direction NIC capacity
  bool worker = true;       // false: hosts no tasks (e.g. the driver)
};

struct DatacenterSpec {
  std::string name;
};

// One directed wide-area link between a pair of datacenters.
struct WanLinkSpec {
  DcIndex src = 0;
  DcIndex dst = 0;
  Rate base_rate = Mbps(200);  // long-run mean capacity
  Rate min_rate = Mbps(80);    // jitter floor
  Rate max_rate = Mbps(300);   // jitter ceiling
  SimTime rtt = Millis(150);   // round-trip latency
};

class Topology {
 public:
  Topology() = default;

  DcIndex AddDatacenter(std::string name);
  NodeIndex AddNode(NodeSpec spec);
  void AddWanLink(WanLinkSpec spec);

  // Creates the full mesh of directed WAN links among all datacenters with
  // identical characteristics.
  void AddUniformWanMesh(Rate base, Rate min, Rate max, SimTime rtt);

  int num_datacenters() const { return static_cast<int>(dcs_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_wan_links() const { return static_cast<int>(wan_links_.size()); }

  const DatacenterSpec& datacenter(DcIndex dc) const { return dcs_.at(dc); }
  const NodeSpec& node(NodeIndex n) const { return nodes_.at(n); }
  const WanLinkSpec& wan_link(int i) const { return wan_links_.at(i); }

  DcIndex dc_of(NodeIndex n) const { return nodes_.at(n).dc; }

  // Nodes hosted in a datacenter.
  const std::vector<NodeIndex>& nodes_in(DcIndex dc) const {
    return dc_nodes_.at(dc);
  }

  // Index into wan_link() for the directed pair, or -1 if none exists
  // (src == dst, or no link configured).
  int wan_link_index(DcIndex src, DcIndex dst) const;

  SimTime rtt(DcIndex src, DcIndex dst) const;

  // Multiplies every WAN link's base/min/max capacity by `factor`
  // (bandwidth-sensitivity ablation).
  void ScaleWanCapacity(double factor);

  // Overrides the task-slot count of every worker in a datacenter
  // (aggregator resource-pressure ablation, Sec. IV-E).
  void SetWorkerCores(DcIndex dc, int cores);

 private:
  std::vector<DatacenterSpec> dcs_;
  std::vector<NodeSpec> nodes_;
  std::vector<std::vector<NodeIndex>> dc_nodes_;
  std::vector<WanLinkSpec> wan_links_;
  std::vector<std::vector<int>> wan_index_;  // [src][dst] -> link idx or -1
};

// Builds the paper's evaluation cluster (Fig. 6): six regions —
// N. Virginia, N. California, São Paulo, Frankfurt, Singapore, Sydney —
// four m3.large-like workers each, plus a driver co-located in N. Virginia.
// WAN capacities vary per pair within the measured 80-300 Mbps envelope.
// `scale` divides all link rates so that proportionally scaled-down inputs
// reproduce full-scale timings (see DESIGN.md, "Real execution under
// simulated time").
Topology Ec2SixRegionTopology(double scale = 1.0);

// Driver/master node index used by Ec2SixRegionTopology.
inline constexpr NodeIndex kEc2DriverNode = 24;

}  // namespace gs

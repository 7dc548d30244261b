// Inter-datacenter transfer pricing.
//
// The task-placement systems the paper positions against (Geode,
// WANalytics) minimize cross-datacenter traffic because providers bill
// per egressed gigabyte. This model prices a TrafficMeter's cross-region
// bytes with per-source-region egress rates (EC2-2016-style tariffs), so
// any scheme comparison can also be read in dollars.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "netsim/network.h"
#include "netsim/topology.h"

namespace gs {

// Object-store tariff (TransportKind::kObjectStore, docs/TRANSPORTS.md):
// staged shuffle bytes skip the per-region egress tariff and are billed instead
// at a flat backbone transfer rate plus per-GiB request/storage fees —
// provider-internal replication to storage is cheaper than internet
// egress, which is exactly the dollars-for-latency trade the transport
// exists to expose. All rates are USD per GiB; requests are priced by
// volume (a fixed part size folds the per-request fee into a per-GiB one).
struct ObjectStoreTariff {
  double put_usd_per_gib = 0.005;       // ingest requests
  double get_usd_per_gib = 0.0005;      // read-back requests
  double storage_usd_per_gib = 0.001;   // short-lived staging capacity
  double transfer_usd_per_gib = 0.05;   // cross-region backbone transfer
};

class WanPricing {
 public:
  // Per-region egress rates (USD/GiB), e.g. premium for South America.
  explicit WanPricing(std::vector<double> egress_usd_per_gib);

  // Uniform egress rate in USD per GiB for every region.
  static WanPricing Uniform(int num_dcs, double usd_per_gib = 0.09);

  // EC2-2016-flavoured tariff for the paper's six regions: 0.09 $/GiB
  // default, 0.16 for Sao Paulo, 0.14 for Sydney.
  static WanPricing Ec2SixRegionTariff();

  double egress_rate(DcIndex dc) const;

  // Per-region egress rates as configured, indexed by DcIndex.
  const std::vector<double>& rates() const { return egress_usd_per_gib_; }

  // Total cost of all cross-datacenter bytes recorded in the meter.
  double CostUsd(const TrafficMeter& meter, const Topology& topo) const;

  // Cost of a single transfer.
  double CostUsd(DcIndex src, DcIndex dst, Bytes bytes) const;

  // Egress cost of the meter's cross-datacenter bytes minus its
  // object-store share (those bytes ride the backbone and are billed by
  // StoreCostUsd instead). Equal to CostUsd(meter, topo) when no store
  // flows ran.
  double EgressCostUsd(const TrafficMeter& meter, const Topology& topo) const;

  // Object-store bill for the meter's staged traffic: request + storage
  // fees on the PUT/GET volume plus the flat backbone rate on its
  // cross-region part. Zero when no store flows ran.
  static double StoreCostUsd(const TrafficMeter& meter, const Topology& topo,
                             const ObjectStoreTariff& tariff);

 private:
  std::vector<double> egress_usd_per_gib_;
};

}  // namespace gs

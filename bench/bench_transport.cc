// JCT-vs-dollars frontier across shuffle transports (docs/TRANSPORTS.md,
// docs/PERF.md).
//
// Sweeps every ShuffleTransport kind (direct, objstore, fabric) under
// all three schemes on two topologies: the paper's WAN-priced six-region
// EC2 cluster (heterogeneous egress tariff) and a uniform four-DC mesh
// (flat tariff). Each cell reports the simulated JCT and the total dollar
// cost, split into internet-egress and object-store components — one row
// per (topology, scheme, transport) point of the frontier.
//
// The sweep pins the trade the object-store transport exists to expose: on
// the WAN-priced cluster, staging is strictly cheaper (staged bytes ride
// the backbone tariff instead of internet egress) and strictly slower
// (store-and-forward barrier, request latencies, shared tier rate) than
// direct shuffle; the bench aborts if that inversion ever disappears.
//
// Environment: GS_SCALE as usual; GS_BENCH_JSON writes the sweep rows as
// JSON (the run_benches.sh convention). GS_RUNS is ignored — one
// deterministic seed per cell; rerunning reproduces it byte for byte.
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"
#include "engine/dataset.h"
#include "engine/transport/transport.h"
#include "harness.h"
#include "netsim/pricing.h"

namespace {

using namespace gs;
using namespace gs::bench;

constexpr std::uint64_t kSeed = 1;

struct TopoCase {
  std::string name;
  bool wan_priced = false;  // heterogeneous egress tariff
};

struct SweepRow {
  std::string topology;
  std::string scheme;
  std::string transport;
  double jct_s = 0;
  double cost_usd = 0;
  double cost_usd_full_scale = 0;
  double egress_cost_usd = 0;
  double store_cost_usd = 0;
  double cross_dc_mib = 0;
};

// A flat four-datacenter mesh: three workers per DC, uniform 200 Mbps WAN
// links, uniform egress tariff. The contrast case to the heterogeneous
// six-region cluster.
Topology UniformMeshTopology(double scale) {
  Topology topo;
  const char* names[] = {"mesh-a", "mesh-b", "mesh-c", "mesh-d"};
  for (int d = 0; d < 4; ++d) {
    const DcIndex dc = topo.AddDatacenter(names[d]);
    for (int n = 0; n < 3; ++n) {
      topo.AddNode({std::string(names[d]) + "-w" + std::to_string(n), dc, 2,
                    Gbps(1) / scale});
    }
  }
  topo.AddUniformWanMesh(Mbps(200) / scale, Mbps(120) / scale,
                         Mbps(280) / scale, Millis(120));
  return topo;
}

SweepRow RunCell(const HarnessConfig& h, const TopoCase& tc, Scheme scheme,
                 TransportKind transport) {
  RunConfig cfg = MakeRunConfig(h, scheme, kSeed);
  cfg.transport.kind = transport;
  Topology topo =
      tc.wan_priced ? MakeTopology(h) : UniformMeshTopology(h.scale);
  if (!tc.wan_priced) {
    cfg.observe.egress_usd_per_gib =
        WanPricing::Uniform(topo.num_datacenters()).rates();
  }
  GeoCluster cluster(std::move(topo), cfg);

  WorkloadParams params;
  params.scale = h.scale;
  auto wl = MakeWorkload("wordcount", params);
  RunResult r = wl->Run(cluster, /*data_seed=*/kSeed * 7919 + 13);

  SweepRow row;
  row.topology = tc.name;
  row.scheme = SchemeName(scheme);
  row.transport = TransportKindName(transport);
  row.jct_s = r.metrics.jct();
  row.cost_usd = r.report.cost_usd;
  row.cost_usd_full_scale = r.report.cost_usd_full_scale;
  row.egress_cost_usd = r.report.egress_cost_usd;
  row.store_cost_usd = r.report.store_cost_usd;
  row.cross_dc_mib = ToMiB(r.metrics.cross_dc_bytes);
  return row;
}

void WriteJson(const std::string& path, const std::vector<SweepRow>& rows) {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    out << "  {\"topology\": \"" << r.topology << "\", \"scheme\": \""
        << r.scheme << "\", \"transport\": \"" << r.transport
        << "\", \"jct_s\": " << std::setprecision(6) << r.jct_s
        << ", \"cost_usd\": " << r.cost_usd
        << ", \"cost_usd_full_scale\": " << r.cost_usd_full_scale
        << ", \"egress_cost_usd\": " << r.egress_cost_usd
        << ", \"store_cost_usd\": " << r.store_cost_usd
        << ", \"cross_dc_mib\": " << r.cross_dc_mib << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

}  // namespace

int main() {
  HarnessConfig h = HarnessConfig::FromEnv();
  std::cout << "=== Shuffle-transport frontier: JCT vs dollars "
               "(WordCount, 3 transports x 3 schemes x 2 topologies) ===\n";
  PrintClusterHeader(h);

  const TopoCase topologies[] = {
      {"ec2-six-region", /*wan_priced=*/true},
      {"uniform-mesh-4dc", /*wan_priced=*/false},
  };
  const TransportKind transports[] = {TransportKind::kDirect,
                                      TransportKind::kObjectStore,
                                      TransportKind::kFabric};

  std::vector<SweepRow> rows;
  TextTable table({"Topology", "Scheme", "Transport", "JCT", "total $",
                   "egress $", "store $", "MiB x-DC"});
  for (const TopoCase& tc : topologies) {
    for (Scheme scheme : AllSchemes()) {
      for (TransportKind transport : transports) {
        SweepRow row = RunCell(h, tc, scheme, transport);
        table.AddRow({row.topology, row.scheme, row.transport,
                      FmtDouble(row.jct_s, 2) + "s",
                      FmtDouble(row.cost_usd, 4),
                      FmtDouble(row.egress_cost_usd, 4),
                      FmtDouble(row.store_cost_usd, 4),
                      FmtDouble(row.cross_dc_mib, 2)});
        rows.push_back(row);
      }
    }
  }
  std::cout << "\n" << table.Render();

  // The frontier property this bench exists to pin: on the WAN-priced
  // topology the object store must be strictly cheaper AND strictly
  // slower than direct, for every scheme that shuffles across the WAN.
  bool frontier_holds = false;
  for (const SweepRow& direct : rows) {
    if (direct.transport != "direct" || direct.topology != "ec2-six-region") {
      continue;
    }
    for (const SweepRow& staged : rows) {
      if (staged.transport == "objstore" &&
          staged.topology == direct.topology &&
          staged.scheme == direct.scheme &&
          staged.cost_usd < direct.cost_usd &&
          staged.jct_s > direct.jct_s) {
        frontier_holds = true;
      }
    }
  }
  GS_CHECK_MSG(frontier_holds,
               "objstore is no longer cheaper-and-slower than direct on the "
               "WAN-priced topology");
  std::cout << "\nFrontier: on ec2-six-region, objstore trades JCT for "
               "dollars against direct (cheaper and slower); fabric "
               "accelerates intra-DC legs at unchanged egress cost.\n";

  if (const char* json = std::getenv("GS_BENCH_JSON");
      json != nullptr && *json != '\0') {
    WriteJson(json, rows);
    std::cout << "\nSweep rows written to " << json << "\n";
  }
  return 0;
}

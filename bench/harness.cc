#include "harness.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <utility>

#include "common/check.h"
#include "common/table.h"
#include "netsim/pricing.h"

namespace gs::bench {

HarnessConfig HarnessConfig::FromEnv() {
  HarnessConfig h;
  if (const char* runs = std::getenv("GS_RUNS")) {
    h.runs = std::max(1, std::atoi(runs));
  }
  if (const char* scale = std::getenv("GS_SCALE")) {
    h.scale = std::max(1.0, std::atof(scale));
  }
  return h;
}

Topology MakeTopology(const HarnessConfig& h) {
  return Ec2SixRegionTopology(h.scale);
}

RunConfig MakeRunConfig(const HarnessConfig& h, Scheme scheme,
                        std::uint64_t seed) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.scale = h.scale;
  cfg.cost = CostModel{}.Scaled(h.scale);
  cfg.net.jitter_interval = h.jitter_interval;
  // A small per-attempt reduce-task failure rate, as observed on shared
  // EC2 tenancy — the recovery-path difference (WAN re-fetch vs local
  // re-read, Fig. 2) is part of what the paper measures.
  cfg.fault.reduce_failure_prob = 0.08;
  cfg.observe.egress_usd_per_gib = WanPricing::Ec2SixRegionTariff().rates();
  return cfg;
}

RunOutcome RunOnce(const HarnessConfig& h, const std::string& workload,
                   const WorkloadParams& params, Scheme scheme,
                   std::uint64_t seed) {
  const double wall_start = WallSeconds();
  GeoCluster cluster(MakeTopology(h), MakeRunConfig(h, scheme, seed));
  auto wl = MakeWorkload(workload, params);
  RunResult result = wl->Run(cluster, /*data_seed=*/seed * 7919 + 13);
  RunOutcome out;
  out.jct_seconds = result.metrics.jct();
  out.wall_seconds = WallSeconds() - wall_start;
  out.cross_dc_bytes = result.metrics.cross_dc_bytes;
  out.metrics = result.metrics;
  out.report = std::move(result.report);
  out.report.label = workload + "/" + SchemeName(scheme);
  if (const char* path = std::getenv("GS_BENCH_REPORT")) {
    if (*path != '\0') {
      std::ofstream rep(path);
      GS_CHECK_MSG(rep.good(), "cannot write " << path);
      rep << out.report.ToJson() << "\n";
    }
  }
  return out;
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteWallMeasurementsJson(const std::string& path,
                               const std::vector<WallMeasurement>& ms) {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot write " << path);
  out << "[\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const WallMeasurement& m = ms[i];
    out << "  {\"name\": \"" << m.name << "\", \"threads\": " << m.threads
        << ", \"iters\": " << m.iters << ", \"seconds\": "
        << std::setprecision(6) << std::fixed << m.seconds << "}"
        << (i + 1 < ms.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

SchemeSummary RunMany(const HarnessConfig& h, const std::string& workload,
                      const WorkloadParams& params, Scheme scheme) {
  SchemeSummary s;
  std::vector<double> jcts, traffic;
  for (int r = 0; r < h.runs; ++r) {
    RunOutcome out = RunOnce(h, workload, params, scheme,
                             static_cast<std::uint64_t>(r) + 1);
    jcts.push_back(out.jct_seconds);
    traffic.push_back(ToMiB(out.cross_dc_bytes));
    s.runs.push_back(std::move(out));
  }
  s.jct = Summarize(jcts);
  s.cross_dc_mib = Summarize(traffic);
  return s;
}

void PrintClusterHeader(const HarnessConfig& h) {
  Topology topo = MakeTopology(h);
  std::cout << "Cluster (paper Fig. 6): " << topo.num_datacenters()
            << " EC2 regions, " << (topo.num_nodes() - 1)
            << " workers + 1 driver; intra-DC 1 Gbps, inter-DC 80-300 Mbps "
               "with jitter.\n"
            << "Scale divisor: " << h.scale << " (data volumes and all "
            << "rates divided equally; timings match full scale).\n"
            << "Runs per configuration: " << h.runs << "\n\n";
}

const std::vector<Scheme>& AllSchemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kSpark, Scheme::kCentralized, Scheme::kAggShuffle};
  return schemes;
}

}  // namespace gs::bench

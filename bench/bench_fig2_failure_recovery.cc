// Reproduces Fig. 2: reducer-failure recovery.
//
// With fetch-based shuffle, a failed reducer must re-fetch its input from
// the mappers across the WAN; with Push/Aggregate the shuffle input is
// already stored in the reducer's datacenter, so recovery reads locally
// and no data crosses datacenters again.
//
// Reproduced with the full engine: a Sort job where every reducer fails
// once mid-task (deterministic environment otherwise). Reported per scheme:
// job completion time with and without failures, and how much *extra*
// cross-datacenter traffic the failures caused.
#include <iostream>

#include "common/table.h"
#include "harness.h"

int main() {
  using namespace gs;
  using namespace gs::bench;

  HarnessConfig h = HarnessConfig::FromEnv();
  std::cout << "=== Fig. 2: reducer-failure recovery (Sort, every reducer "
               "fails once) ===\n";
  PrintClusterHeader(h);

  WorkloadParams params;
  params.scale = h.scale;

  TextTable table({"Scheme", "JCT no failures", "JCT all reducers fail",
                   "failure penalty", "extra cross-DC traffic"});

  double penalty[2] = {0, 0};
  int idx = 0;
  for (Scheme scheme : {Scheme::kSpark, Scheme::kAggShuffle}) {
    double jct[2];
    Bytes traffic[2];
    for (int failing = 0; failing < 2; ++failing) {
      RunConfig cfg = MakeRunConfig(h, scheme, /*seed=*/7);
      // Deterministic environment: isolate the recovery path.
      cfg.net.jitter_interval = 0;
      cfg.net.wan_stall_prob = 0;
      cfg.net.wan_flow_efficiency_min = 1.0;
      cfg.cost.straggler_sigma = 0;
      cfg.cost.straggler_prob = 0;
      cfg.fault.reduce_failure_prob = failing ? 1.0 : 0.0;
      GeoCluster cluster(MakeTopology(h), cfg);
      auto wl = MakeWorkload("Sort", params);
      RunResult r = wl->Run(cluster, /*data_seed=*/99);
      jct[failing] = r.metrics.jct();
      traffic[failing] = r.metrics.cross_dc_bytes;
    }
    penalty[idx++] = jct[1] - jct[0];
    table.AddRow({SchemeName(scheme), FmtDouble(jct[0], 2) + "s",
                  FmtDouble(jct[1], 2) + "s",
                  "+" + FmtDouble(jct[1] - jct[0], 2) + "s",
                  FmtMiB(traffic[1] - traffic[0])});
  }
  std::cout << table.Render() << "\n";
  std::cout << "Expected shape (paper Fig. 2): with Push/Aggregate the "
               "failed reducers re-read shuffle input from their own "
               "datacenter, so the failure penalty is far smaller and no "
               "re-fetch crosses the WAN.\n";
  return penalty[1] < penalty[0] ? 0 : 1;
}

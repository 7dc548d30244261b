// Shared harness for the figure-reproduction benches.
//
// Each bench binary reproduces one table or figure of the paper: it runs
// workloads under the three schemes over several seeds (the paper uses 10
// iterative runs), summarizes with the paper's statistics (10% trimmed
// mean, median, interquartile range) and prints a table shaped like the
// figure. Environment variables tune effort:
//   GS_RUNS         — runs per configuration (default 10, like the paper)
//   GS_SCALE        — input/rate scale divisor (default 100)
//   GS_BENCH_REPORT — if set, RunOnce writes each run's RunReport JSON
//                     there (overwriting; the file ends up holding the
//                     bench's last run — see docs/OBSERVABILITY.md)
#pragma once

#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/cluster.h"
#include "workloads/hibench.h"

namespace gs::bench {

struct HarnessConfig {
  int runs = 10;
  double scale = 100.0;
  SimTime jitter_interval = Seconds(5);

  static HarnessConfig FromEnv();
};

// One measured execution.
struct RunOutcome {
  double jct_seconds = 0;       // simulated job completion time
  double wall_seconds = 0;      // real elapsed time of the run
  Bytes cross_dc_bytes = 0;
  JobMetrics metrics;
  RunReport report;  // full observability report (docs/OBSERVABILITY.md)
};

// --- wall-clock measurement (docs/PERF.md) ---
// Simulated time is what the benches report to reproduce the paper; wall
// time is what the compute-offload work optimizes. These helpers measure
// and publish the latter.

// Monotonic wall-clock seconds (std::chrono::steady_clock).
double WallSeconds();

// One wall-clock data point of a micro bench.
struct WallMeasurement {
  std::string name;   // what was measured, e.g. "map+partition"
  int threads = 1;    // compute threads used (1 for pure primitives)
  int iters = 1;      // repetitions folded into `seconds`
  double seconds = 0; // total elapsed wall time
};

// Writes measurements as a JSON array of objects to `path` (overwrites).
void WriteWallMeasurementsJson(const std::string& path,
                               const std::vector<WallMeasurement>& ms);

// Builds the paper's cluster and run configuration for a scheme and seed.
RunConfig MakeRunConfig(const HarnessConfig& h, Scheme scheme,
                        std::uint64_t seed);
Topology MakeTopology(const HarnessConfig& h);

// Runs `workload` once under `scheme` with the given seed (used for both
// the environment jitter and the data generation).
RunOutcome RunOnce(const HarnessConfig& h, const std::string& workload,
                   const WorkloadParams& params, Scheme scheme,
                   std::uint64_t seed);

// Runs `h.runs` seeds and summarizes JCTs (seconds).
struct SchemeSummary {
  Summary jct;
  Summary cross_dc_mib;
  std::vector<RunOutcome> runs;
};
SchemeSummary RunMany(const HarnessConfig& h, const std::string& workload,
                      const WorkloadParams& params, Scheme scheme);

// Prints the Fig. 6 cluster header once per bench.
void PrintClusterHeader(const HarnessConfig& h);

// All three schemes, in the paper's order.
const std::vector<Scheme>& AllSchemes();

}  // namespace gs::bench

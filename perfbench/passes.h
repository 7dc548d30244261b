// Work lists and timed passes of the end-to-end benchmark.
//
// A workload is a fixed list of units — TeraSort cells, service jobs or
// simcheck configurations — drawn from the invocation's seed by Setup().
// A pass runs the whole list once through the library's public API and
// checks every unit's output. Traced passes additionally read host clocks
// around each call into a layer and copy the MetricsRegistry counters of
// each run; untraced passes read no clock inside the pass, so the
// end-to-end numbers carry no tracing cost. Nothing inside the library is
// instrumented: every per-layer number is measured from out here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "engine/run_config.h"
#include "netsim/topology.h"
#include "simcheck/simcheck.h"

namespace perfbench {

// Host clocks, in seconds.
double WallNow();        // steady clock
double ThreadCpuNow();   // CPU of the calling thread (the event loop)
double ProcessCpuNow();  // user + sys CPU of every thread of the process
double PeakRssMiB();     // resident-memory high-water mark of the process

// Logical CPUs this process may run on (what `nproc` prints).
int OnlineCpus();

// Per-layer values of one traced pass, keyed by metric name.
using Layers = std::map<std::string, double>;

struct PassResult {
  int attempted = 0;  // units run: cells, jobs or configurations
  int failed = 0;     // units that threw, never completed or failed a check
  std::vector<std::string> failures;  // one line per failed unit
  // One deterministic line per unit (simulated JCT, cross-DC bytes, report
  // digest); every pass of an invocation must reproduce the same lines.
  std::vector<std::string> fingerprints;
  Layers layers;  // filled by traced passes only
};

enum class Kind { kCells, kService, kSimcheck };

// Everything a pass needs, built once per setup from the seed.
struct WorkList {
  std::string name;
  Kind kind = Kind::kCells;
  std::uint64_t seed = 0;
  int threads = 1;  // compute-pool size of every cluster
  gs::Topology topology;
  // kCells: one run configuration per cell. kService: the single shared
  // cluster's configuration.
  std::vector<gs::RunConfig> configs;
  std::string hibench;  // HiBench workload name ("terasort", ...)
  double scale = 1;
  // kService: per-job arrival delay (simulated seconds) and tenant.
  std::vector<gs::SimTime> arrivals;
  std::vector<int> tenants;
  // kSimcheck: the configurations of the sweep.
  std::vector<gs::simcheck::SimcheckConfig> checks;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric of a traced run, in BENCHMARK.json order. Each
// workload reports all of them, 0 where the layer does not run.
const std::vector<MetricDef>& LayerMetrics();

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Builds the work list of `workload` for `seed`; `threads` is the
// compute-pool size of every cluster. Throws std::invalid_argument on an
// unknown workload.
WorkList Setup(const std::string& workload, std::uint64_t seed, int threads);

PassResult RunPass(const WorkList& work, bool traced);

// The untimed output check run once per invocation after the timed passes
// (so peak RSS excludes it): TeraSort cells collect their records and
// check that the output is sorted and keeps the input's record count. The
// other workloads check every unit inside each pass, so this returns an
// empty result for them.
PassResult VerifyPass(const WorkList& work);

// simcheck-sweep builds its clusters inside the harness, where no outside
// span reaches. For a traced pass of it, this times building clusters from
// the sweep's topologies outside the harness, at both pool sizes the
// harness uses, and sets engine.cluster_init_s to the mean per cluster
// times the pass's simcheck.engine_runs. No-op for other workloads.
void AddClusterInitProbe(const WorkList& work, Layers* layers);

}  // namespace perfbench

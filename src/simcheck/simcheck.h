// simcheck: randomized differential testing and invariant checking.
//
// The paper's claims rest on exact accounting — cross-datacenter shuffle
// traffic is lower-bounded by S - s1 (Eq. 2, Sec. III-B) and Push/Aggregate
// is measured against that bound — so a silent byte-conservation or
// determinism bug anywhere in the simulator corrupts every reproduced
// figure. simcheck draws random topologies, DAG shapes, fault plans and
// thread counts from a seeded RNG, runs each configuration under all three
// schemes and two compute-pool sizes, and checks the invariant catalog
// below. On failure the configuration is shrunk to a minimal reproducer and
// emitted as flat JSON, replayable via `geosim-fuzz --replay=FILE` or
// FromJson() + RunSimcheck().
//
// The invariant catalog (docs/TESTING.md has the full contract):
//
//   cross-scheme-equivalence  all three schemes produce the same multiset
//                             of output records (values canonicalized:
//                             group-by value lists are order-insensitive)
//   oracle-output             the collected records match an in-harness
//                             reference evaluation of the same DAG
//   thread-determinism        records and RunReport JSON are byte-identical
//                             for --threads=1 and --threads=N
//   rerun-determinism         an identical rerun is byte-identical
//   byte-conservation         per WAN link: utilization bucket sums ==
//                             LinkUtilization total == TrafficMeter
//                             pair_bytes; at the netsim layer additionally
//                             meter pair_bytes == sum of per-flow bytes
//   flow-accounting           netsim.flows_started == flows_completed +
//                             flows_cancelled, and active_flows == 0 after
//                             the run (loopback and zero-byte flows count)
//   eq2-lower-bound           measured cross-DC shuffle traffic respects
//                             D >= S - s1 (Eq. 2), and the exact per-shard
//                             refinement D >= S - sum_k max_j b_jk
//   input-placement           Parallelize creates exactly partitions_per_dc
//                             partitions in every datacenter, all of them
//                             on worker nodes
//   metrics-consistency       scheduler queue drained, events_executed <=
//                             events_scheduled, task counters balance
//   quiescence                the event queue is empty and no flow is
//                             still active once a run returns
//   run-failure               no run may throw (GS_CHECK failures inside
//                             the engine surface here)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/record.h"
#include "netsim/topology.h"

namespace gs {
namespace simcheck {

// One randomly drawn configuration. Every field is plain data so the
// config round-trips through flat JSON (ToJson/FromJson) and shrinks
// field-by-field. All randomness inside a run derives from `seed`, so a
// config identifies one deterministic scenario.
struct SimcheckConfig {
  std::uint64_t seed = 1;

  // Topology: num_dcs datacenters, nodes_per_dc workers each, full WAN
  // mesh. With dedicated_driver the first datacenter additionally hosts a
  // non-worker driver node (the six-region layout); without it node 0
  // doubles as the driver, so collect flows exercise the loopback path.
  int num_dcs = 3;
  int nodes_per_dc = 2;
  bool dedicated_driver = false;
  int wan_rate_mbps = 200;  // mean of the per-link base-rate draw
  int rtt_ms = 100;
  bool uniform_wan = true;  // false: per-link rates drawn around the mean

  // Workload: dag_shape selects the transformation chain (see runner.cc),
  // inputs are num_records records over num_keys keys, spread by
  // GeoCluster::Parallelize over partitions_per_dc partitions per DC.
  int dag_shape = 0;  // 0..kNumDagShapes-1
  int num_records = 300;
  int num_keys = 40;
  int partitions_per_dc = 2;
  int num_shards = 4;
  bool map_side_combine = true;
  bool save_action = false;  // ActionKind::kSave instead of kCollect

  // Engine knobs.
  int aggregator_dc_count = 1;
  int threads_high = 4;       // differential partner of --threads=1
  bool noisy_network = true;  // jitter + stalls + stragglers enabled
  // Shuffle transport: TransportKind as an int (0 direct, 1 objstore,
  // 2 fabric) so the config stays flat plain data. All invariants are
  // transport-independent — logical per-job accounting doesn't change with
  // the mechanism — so every check runs unmodified under each backend.
  int transport = 0;
  // Adaptive aggregator placement (0 off, 1 on): replanning moves receiver
  // shards, never records, so every invariant holds unmodified — including
  // thread- and rerun-determinism, which is exactly what this samples.
  int adaptive = 0;
  // Coded shuffle (docs/CODED.md): 0 = off, r >= 1 = enabled with that
  // redundancy. Applied to the Spark run only (the engine rejects the
  // combination with other schemes); the Eq. 2 check switches to the
  // replica-aware bound derived from the tracker's retained primary
  // placement. Drawn last so older fuzz seeds replay unchanged.
  int coded = 0;

  // Fault plan (times are fractions of the fault-free Spark JCT, resolved
  // by a probe run so the plan lands mid-job at any scale).
  bool crash = false;
  int crash_victim = 1;        // node index; generator never picks node 0
  double crash_frac = 0.4;     // crash time / fault-free JCT
  double restart_after = 0;    // seconds; 0 = stays dead
  bool degrade = false;
  double degrade_factor = 0.3;
  double degrade_frac = 0.2;
  double degrade_duration = 5.0;  // always > 0: outages must end
  bool block_loss = false;
  double block_loss_frac = 0.5;
};

inline constexpr int kNumDagShapes = 6;

// Invariant names as they appear in Violation::invariant.
inline constexpr const char* kInvCrossScheme = "cross-scheme-equivalence";
inline constexpr const char* kInvOracle = "oracle-output";
inline constexpr const char* kInvThreads = "thread-determinism";
inline constexpr const char* kInvRerun = "rerun-determinism";
inline constexpr const char* kInvConservation = "byte-conservation";
inline constexpr const char* kInvFlowAccounting = "flow-accounting";
inline constexpr const char* kInvEq2 = "eq2-lower-bound";
inline constexpr const char* kInvPlacement = "input-placement";
inline constexpr const char* kInvMetrics = "metrics-consistency";
inline constexpr const char* kInvQuiescence = "quiescence";
inline constexpr const char* kInvRunFailure = "run-failure";

struct Violation {
  std::string invariant;  // one of the kInv* names
  std::string detail;     // human-readable evidence
};

struct CheckResult {
  std::vector<Violation> violations;
  // Engine-level cluster runs whose results the check consumed. A
  // threads_high run or rerun whose threads=1 partner threw still executes
  // (the runs are concurrent) but is discarded and not counted.
  int engine_runs = 0;
  int netsim_flows = 0;  // flows started by the netsim-level script
  bool ok() const { return violations.empty(); }
};

// Draws a configuration from the seed. GenerateConfig(s) is a pure
// function of s; geosim-fuzz iterates it over a contiguous seed range.
SimcheckConfig GenerateConfig(std::uint64_t seed);

// Flat-JSON round trip for reproducers. FromJson accepts exactly the
// object ToJson emits (unknown keys are an error, missing keys keep their
// defaults); on failure returns false and sets *error.
std::string ToJson(const SimcheckConfig& cfg);
bool FromJson(const std::string& json, SimcheckConfig* out,
              std::string* error);

// Deterministic builders shared by the runner and the tests.
Topology BuildTopology(const SimcheckConfig& cfg);
std::vector<Record> BuildRecords(const SimcheckConfig& cfg);

// Runs the netsim-level script (random flows/cancels/degradations against
// a bare Network) and checks conservation, flow accounting and quiescence.
CheckResult RunNetsimCheck(const SimcheckConfig& cfg);

// Runs the engine-level differential check: all three schemes at
// --threads=1 and --threads=threads_high, plus a rerun, under the config's
// fault plan; checks the full invariant catalog. The input records are
// built once. The fault-free probe (when there is a fault plan) runs first
// on the caller; the other seven runs execute concurrently on a pool as
// wide as the hardware and are consumed in a fixed order, so the result is
// identical to running them one after another.
CheckResult RunEngineCheck(const SimcheckConfig& cfg);

// Both levels; the union of their violations.
CheckResult RunSimcheck(const SimcheckConfig& cfg);

// Greedily simplifies a failing config while it keeps violating at least
// one invariant the original violated. Runs `check` (defaults to
// RunSimcheck; pass RunNetsimCheck/RunEngineCheck to shrink against one
// level) up to max_runs times; returns the smallest still-failing config.
struct ShrinkOutcome {
  SimcheckConfig config;
  CheckResult result;  // of the returned config
  int runs = 0;        // check invocations spent
};
using CheckFn = CheckResult (*)(const SimcheckConfig&);
ShrinkOutcome Shrink(const SimcheckConfig& failing, int max_runs = 48,
                     CheckFn check = &RunSimcheck);

}  // namespace simcheck
}  // namespace gs

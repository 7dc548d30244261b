// Per-job measurements: completion time, stage spans, traffic.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace gs {

class Topology;
enum class FlowKind;

struct StageMetrics {
  StageId id = -1;
  std::string name;
  int num_tasks = 0;
  int task_failures = 0;
  SimTime submitted = 0;
  SimTime first_task_started = 0;
  SimTime completed = 0;

  SimTime span() const { return completed - submitted; }
};

struct JobMetrics {
  // Service identity (engine/job_api.h): filled by GeoCluster when the
  // job finalizes.
  JobId job_id = -1;
  std::string tenant;

  SimTime submitted = 0;  // arrival at the service (admission may queue it)
  SimTime started = 0;    // admission: the runner began executing
  SimTime completed = 0;
  std::vector<StageMetrics> stages;

  // Cross-datacenter bytes among workers incurred by this job. Matches the
  // paper's Fig. 8 metric: traffic to/from the driver (collect) excluded,
  // raw-input centralization included.
  Bytes cross_dc_bytes = 0;
  Bytes cross_dc_fetch_bytes = 0;       // fetch-based shuffle reads
  Bytes cross_dc_push_bytes = 0;        // transferTo pushes
  Bytes cross_dc_centralize_bytes = 0;  // Centralized input relocation

  int task_failures = 0;

  // Fault-recovery accounting (see docs/FAULTS.md).
  int fetch_failures = 0;      // reducer gathers hitting a missing output
  int node_crashes = 0;        // node crashes observed during the job
  int map_resubmissions = 0;   // parent-stage map partitions re-run
  int push_retries = 0;        // transfer pushes retried after receiver loss
  int push_fallbacks = 0;      // pushes degraded to producer-local (fetch)

  // Adaptive-control accounting (docs/ADAPTIVE.md); all stay 0 — and out
  // of the report JSON — unless AdaptiveConfig::enabled.
  int replans = 0;             // replanner passes that changed a plan
  int receivers_moved = 0;     // receiver shards re-placed mid-job
  int adaptive_fallbacks = 0;  // shards degraded push->fetch by bandwidth

  // Cached-input placement misses (ReceiverPlacement::StageInputPerDc):
  // partitions whose every replica is dead or evicted at planning time, so
  // their bytes drop out of the aggregator-choice input weights. Nonzero
  // values mean Eq. 2 planned against an undercount.
  int placement_misses = 0;

  // Coded-shuffle accounting (docs/CODED.md); all stay 0 — and out of the
  // report JSON — unless CodedConfig::enabled.
  int coded_groups = 0;             // XOR groups multicast
  Bytes coded_multicast_bytes = 0;  // WAN bytes moved as coded packets
  Bytes coded_residual_bytes = 0;   // uncoded remainder, unicast fallback
  Bytes coded_local_bytes = 0;      // segments served by an in-DC replica
  // Extra map compute bought by the r-fold replication: (r-1) x the
  // replicated partitions' map seconds, the cost side of the crossover.
  double coded_replica_compute_seconds = 0;

  // Per-flow cross-datacenter traffic accounting, called at every
  // StartFlow site the job owns. Equivalent to metering: the TrafficMeter
  // also records at flow start, but its totals span all concurrent jobs,
  // so per-job numbers must be attributed at the call site.
  void AccountFlow(const Topology& topo, NodeIndex src, NodeIndex dst,
                   Bytes bytes, FlowKind kind);

  SimTime jct() const { return completed - started; }
  SimTime queue_delay() const { return started - submitted; }
};

}  // namespace gs

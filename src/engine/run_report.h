// RunReport: structured, serializable snapshot of a run's observability.
//
// A report bundles everything the observability subsystem collects — the
// per-job JobMetrics, the MetricsRegistry snapshot, the per-WAN-link
// utilization timeseries and the WanPricing dollar cost — into one value
// with a deterministic JSON encoding. GeoCluster builds one per action
// (see RunResult in engine/cluster.h); `geosim --report=FILE` and the
// bench harness write it to disk.
//
// Scope note: JobMetrics describes the single job that produced the
// result, while the metrics/utilization/cost sections are cumulative over
// the cluster's lifetime (a multi-job workload's final report covers all
// its jobs). docs/OBSERVABILITY.md discusses the schema in detail.
//
// Determinism: ToJson() emits keys in a fixed order through JsonWriter, so
// for a fixed seed the bytes are identical across compute thread counts —
// tests/integration/compute_determinism_test.cc compares full reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/metrics_registry.h"
#include "common/units.h"
#include "engine/metrics.h"

namespace gs {

struct RunReport {
  // Bump when the JSON layout changes incompatibly.
  // v2: per-job `jobs` array; job section gained job_id/tenant/submitted/
  //     queue_delay (multi-tenant service, docs/SERVICE.md).
  // v3: every run writes every key, whatever its transport, flags or faults.
  static constexpr int kSchemaVersion = 3;

  // Run identity.
  std::string scheme;      // shuffle scheme name ("baseline", "transfer"...)
  // Shuffle-transport backend name ("direct", "objstore", "fabric").
  std::string transport;
  bool adaptive = false;   // AdaptiveConfig::enabled
  bool coded = false;      // CodedConfig::enabled
  int coded_redundancy_r = 0;  // CodedConfig::redundancy_r; 0 when not coded
  std::uint64_t seed = 0;
  double scale = 1.0;      // data-size scale factor of the run
  std::string label;       // free-form (workload or bench name); may be ""

  // Topology shape.
  int num_datacenters = 0;
  int num_nodes = 0;

  // The job that produced this report's RunResult.
  JobMetrics job;

  // One compact row per job completed on the cluster so far, in
  // completion order (cumulative, like the metrics section below).
  struct JobRow {
    JobId job_id = -1;
    std::string tenant;
    std::string label;
    SimTime submitted = 0;
    SimTime started = 0;
    SimTime completed = 0;
    Bytes cross_dc_bytes = 0;
    int task_failures = 0;

    SimTime queue_delay() const { return started - submitted; }
    SimTime jct() const { return completed - started; }
  };
  std::vector<JobRow> jobs;

  // MetricsRegistry snapshot (empty when metrics are disabled).
  bool metrics_enabled = false;
  std::vector<MetricSnapshot> metrics;

  // Per-WAN-link utilization timeseries. Only links that carried traffic
  // appear. Bucket b covers [b*bucket, (b+1)*bucket) sim-seconds; the sum
  // of `buckets` equals `total_bytes` equals the TrafficMeter pair bytes
  // (conservation invariant, tests/netsim/utilization_test.cc).
  struct LinkSeries {
    DcIndex src_dc = 0;
    DcIndex dst_dc = 0;
    std::string src_name;
    std::string dst_name;
    Rate base_rate = 0;       // nominal link capacity, bytes/sec
    Bytes total_bytes = 0;
    std::vector<Bytes> buckets;
  };
  SimTime utilization_bucket = 0;  // 0 when utilization is disabled
  std::vector<LinkSeries> links;

  // Total dollar cost so far — WanPricing egress on the cross-datacenter
  // bytes plus the object-store bill for staged traffic (zero except under
  // the object-store transport) — and the same extrapolated to full scale
  // (divide by `scale`).
  double cost_usd = 0;
  double cost_usd_full_scale = 0;
  // Breakdown of cost_usd.
  double egress_cost_usd = 0;
  double store_cost_usd = 0;

  // Trace summary (span counts only; the full trace lives in
  // RunResult::trace).
  struct TraceSummary {
    bool enabled = false;
    int spans = 0;
    int task_spans = 0;
    int stage_spans = 0;
    int flow_spans = 0;
    int phase_spans = 0;
    Bytes flow_bytes = 0;
  };
  TraceSummary trace;

  // Deterministic JSON encoding (fixed key order, gs::JsonNumber floats).
  std::string ToJson() const;
};

}  // namespace gs

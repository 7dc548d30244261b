// Run configuration: scheme selection and engine knobs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "engine/fault_plan.h"
#include "exec/cost_model.h"
#include "netsim/network.h"
#include "sched/task_scheduler.h"

namespace gs {

// The three schemes evaluated in the paper (Sec. V-A, "Baselines").
enum class Scheme {
  kSpark,        // stock fetch-based shuffle, network-oblivious placement
  kCentralized,  // ship all raw input to one datacenter, then run there
  kAggShuffle,   // this paper: proactive Push/Aggregate via transferTo()
};

const char* SchemeName(Scheme scheme);

// Aggregator-datacenter selection policy for automatic transferTo().
// kLargestInput is the paper's choice (Sec. III-B/IV-D); the others exist
// for the ablation validating that analysis (bench_ablation_aggregator).
enum class AggregatorPolicy { kLargestInput, kRandom, kSmallestInput };

const char* AggregatorPolicyName(AggregatorPolicy policy);

// Fault injection knobs (the recovery response to a lost push lives on
// TransportConfig).
struct FaultConfig {
  // Probability that a reduce task fails on its first attempt, halfway
  // through its compute phase (the paper's Fig. 2 experiment).
  double reduce_failure_prob = 0.0;

  // Scheduled/random infrastructure faults (node crashes, WAN link flaps,
  // block losses). Empty by default.
  FaultPlan plan;
};

// Which mechanism moves a produced shard's bytes to its consumers
// (engine/transport/transport.h, docs/TRANSPORTS.md).
enum class TransportKind {
  kDirect,       // node-to-node flows (the paper's model; the default)
  kObjectStore,  // stage shards through a rate-limited storage tier
  kFabric,       // RDMA-class intra-DC fabric; WAN legs stay direct
};

const char* TransportKindName(TransportKind kind);

// Object-store transport settings. The rate describes the full-scale
// system; GeoCluster divides it by RunConfig::scale like every other
// capacity, so time and traffic ratios are preserved at bench scales.
// Staged bytes are billed at netsim/pricing.h::ObjectStoreTariff's rates.
struct ObjectStoreConfig {
  // Datacenter hosting the staging bucket. kNoDc (default) stages each
  // shard in its producer's own datacenter — PUTs stay local and only the
  // GET crosses the WAN, so cross-DC volume matches the direct transport.
  DcIndex dc = kNoDc;

  // Aggregate ingest+egress throughput of one datacenter's store tier
  // (full scale; shared max-min by that tier's PUT and GET flows).
  Rate rate = Gbps(4);

  // Request round-trip added to each PUT's and GET's connection setup.
  SimTime request_latency = Millis(30);
};

// Fabric transport settings: an RDMA-class intra-DC interconnect.
// Shuffle legs inside one datacenter bypass both endpoint NICs and share
// the fabric's aggregate capacity instead; the histogram exchange that
// precomputes receive areas (partition-size agreement before the one-sided
// writes) is modeled as a fixed setup latency per transfer.
struct FabricConfig {
  // Aggregate fabric capacity per datacenter (full scale; divided by
  // RunConfig::scale by GeoCluster).
  Rate rate = Gbps(40);
  SimTime exchange_latency = Millis(2);
};

// Shuffle-transport selection and the per-kind settings. Push retries
// after a receiver's node dies follow fixed constants whichever kind
// runs (kMaxPushRetries and the backoff in engine/job_runner.cc).
struct TransportConfig {
  TransportKind kind = TransportKind::kDirect;

  ObjectStoreConfig object_store;
  FabricConfig fabric;
};

// Adaptive aggregator placement and mid-job replanning (docs/ADAPTIVE.md).
// Off by default: with `enabled` false the engine runs the paper's static
// Eq. 2 chooser and RunReports stay byte-identical to non-adaptive builds.
// When enabled, aggregator datacenters are ranked by *effective measured
// bandwidth* (netsim's decayed utilization estimate) instead of input
// volume alone, and WAN degradation events re-run the policy mid-job for
// receiver shards that have not started. The estimate window, hysteresis,
// degradation threshold and replan spacing are constants
// (docs/ADAPTIVE.md §4).
struct AdaptiveConfig {
  bool enabled = false;

  // Forces every automatic transferTo into this datacenter and disables
  // replanning — the "offline oracle" arm used by bench_adaptive to
  // bound how much any online policy could win. kNoDc = disabled.
  DcIndex pin_dc = kNoDc;
};

// Coded shuffle (docs/CODED.md): trade map compute for WAN bytes, after
// Coded MapReduce. Off by default — with `enabled` false nothing in the
// engine's behaviour changes and RunReports stay byte-identical to
// non-coded builds. When enabled (baseline fetch scheme only), every map
// partition executes in `redundancy_r` datacenters instead of one. The
// replication overlap then lets the shuffle serve most shard segments from
// a replica inside the consuming datacenter (zero WAN bytes) and deliver
// XOR-coded groups of up to r of the rest as single multicast packets
// (netsim::StartMulticastFlow, FlowKind::kCodedMulticast), with residual
// uncoded segments falling back to plain unicast fetches. The WAN volume
// drops from ~(K-1)/K of the shuffle to ~(K-r)/K on K datacenters; the
// price is (r-1)x the map compute, accounted per job
// (JobMetrics::coded_replica_compute_seconds).
struct CodedConfig {
  bool enabled = false;

  // Datacenters each map partition executes in: its home DC plus the next
  // r-1 in a deterministic ring. Validated at Submit: 1 <= redundancy_r <=
  // number of datacenters (r = 1 degenerates to no replication and no
  // coding gain, but stays a valid configuration).
  int redundancy_r = 2;
};

// Speculative execution (spark.speculation, off by default as in Spark):
// once 75% of a stage's tasks finished, a running task slower than 1.5x
// the median duration gets a backup copy; the first attempt to finish
// wins. Interacts with the shuffle mechanism: a speculated
// *reducer* re-fetches its input — over the WAN under fetch-based shuffle,
// locally under Push/Aggregate.
struct SpeculationConfig {
  bool enabled = false;
};

// Multi-job service knobs (engine/job_api.h, docs/SERVICE.md).
struct ServiceConfig {
  // Jobs allowed to execute concurrently; arrivals beyond the cap wait in
  // the admission queue (highest JobOptions::priority first, FIFO among
  // equals). <= 0 means unlimited.
  int max_concurrent_jobs = 0;
};

// What a run records and reports (docs/OBSERVABILITY.md). All collection
// happens on the single-threaded event loop, so everything here is
// deterministic in the seed and independent of compute_threads.
struct ObservabilityConfig {
  // Registry-backed counters/gauges/histograms across simcore, netsim,
  // sched, storage and engine, exported into RunResult::report. Cheap
  // (atomic bumps); with metrics off, instrumented call sites reduce to a
  // null-pointer check.
  bool metrics = true;

  // Record task/stage/flow spans into RunResult::trace (the WebUI-style
  // visualization of Sec. IV-E).
  bool trace = false;

  // Bucket width of the per-WAN-link bandwidth-utilization timeseries in
  // RunResult::report. <= 0 disables the timeseries; it is only collected
  // while `metrics` is true.
  SimTime utilization_bucket = Seconds(1);

  // Per-region egress $/GiB for the report's cost section, indexed by
  // DcIndex. Empty (or wrongly sized) falls back to a uniform 0.09 $/GiB
  // (WanPricing::Uniform); geosim and the bench harness install
  // WanPricing::Ec2SixRegionTariff().
  std::vector<double> egress_usd_per_gib;
};

struct RunConfig {
  Scheme scheme = Scheme::kSpark;
  std::uint64_t seed = 1;

  // Data volumes and rates are both divided by `scale` relative to the
  // paper's full-size experiment, which preserves all time and traffic
  // ratios while letting benches run in seconds (see DESIGN.md). The
  // topology and cost model passed to GeoCluster must be built with the
  // same scale.
  double scale = 100.0;

  NetworkConfig net;
  TaskSchedulerConfig sched;
  CostModel cost;  // already scaled by the caller (CostModel::Scaled)

  TransportConfig transport;
  AdaptiveConfig adaptive;
  CodedConfig coded;
  FaultConfig fault;
  SpeculationConfig speculation;
  ServiceConfig service;
  ObservabilityConfig observe;

  // Ablation knobs.
  AggregatorPolicy aggregator_policy = AggregatorPolicy::kLargestInput;
  // Aggregate shuffle input into this many datacenters (Sec. III-C:
  // "aggregating all shuffle input into a subset of datacenters which
  // store the largest fractions"; the paper evaluates 1). Larger values
  // trade extra cross-datacenter reduce traffic for more ingress bandwidth
  // and compute headroom; num_datacenters approximates iShuffle-style
  // spread shuffle-on-write.
  int aggregator_dc_count = 1;
  // Skip map-side combining before shuffle writes and transfer pushes
  // (Sec. IV-C3); results stay correct via the reduce-side combine.
  bool disable_map_side_combine = false;

  // Worker threads of the compute ThreadPool that executes tasks' real
  // record transformations off the (single-threaded) event loop. 0 picks
  // the host's hardware concurrency. Results, event order, and metrics
  // are identical for every value — compute jobs are pure and joined at
  // fixed simulation events (docs/PERF.md) — so this only changes how
  // fast a run finishes in wall-clock time.
  int compute_threads = 0;
};

}  // namespace gs

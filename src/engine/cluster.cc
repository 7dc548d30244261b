#include "engine/cluster.h"

#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dag/dag_scheduler.h"
#include "engine/dataset.h"
#include "engine/fault_injector.h"
#include "engine/job_runner.h"
#include "engine/transport/transport.h"
#include "netsim/pricing.h"

namespace gs {

namespace {

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0; }

// Key of GeoCluster::relocations_.
std::int64_t RelocationKey(RddId rdd, int partition) {
  return (static_cast<std::int64_t>(rdd) << 32) | partition;
}

// Every source RDD reachable from `root`, in depth-first pre-order.
std::vector<const SourceRdd*> CollectSources(const Rdd& root) {
  std::vector<const SourceRdd*> sources;
  std::vector<const Rdd*> visited;
  std::function<void(const Rdd&)> walk = [&](const Rdd& rdd) {
    for (const Rdd* v : visited) {
      if (v == &rdd) return;
    }
    visited.push_back(&rdd);
    if (rdd.kind() == RddKind::kSource) {
      sources.push_back(static_cast<const SourceRdd*>(&rdd));
    }
    for (const RddPtr& parent : rdd.parents()) walk(*parent);
  };
  walk(root);
  return sources;
}

// Rejects malformed transport/pricing inputs up front, when the config is
// locked in at cluster construction (i.e. before any Submit), instead of
// letting a negative rate or NaN price propagate silently through the
// max-min solver and the cost report.
void ValidateConfig(const RunConfig& cfg, const Topology& topo) {
  const TransportConfig& t = cfg.transport;
  const ObjectStoreConfig& os = t.object_store;
  GS_CHECK_MSG(os.dc == kNoDc ||
                   (os.dc >= 0 && os.dc < topo.num_datacenters()),
               "transport.object_store.dc out of range");
  GS_CHECK_MSG(std::isfinite(os.rate) && os.rate > 0,
               "transport.object_store.rate must be finite and > 0");
  GS_CHECK_MSG(FiniteNonNegative(os.request_latency),
               "transport.object_store.request_latency must be finite and "
               ">= 0");

  GS_CHECK_MSG(std::isfinite(t.fabric.rate) && t.fabric.rate > 0,
               "transport.fabric.rate must be finite and > 0");
  GS_CHECK_MSG(FiniteNonNegative(t.fabric.exchange_latency),
               "transport.fabric.exchange_latency must be finite and >= 0");

  for (double rate : cfg.observe.egress_usd_per_gib) {
    GS_CHECK_MSG(FiniteNonNegative(rate),
                 "observe.egress_usd_per_gib must be finite and >= 0");
  }

  // pin_dc is validated whether or not adaptivity is enabled: a config
  // carrying an out-of-range datacenter is malformed even if this run never
  // reads it (the same rule the transport knobs above follow).
  const AdaptiveConfig& a = cfg.adaptive;
  GS_CHECK_MSG(a.pin_dc == kNoDc ||
                   (a.pin_dc >= 0 && a.pin_dc < topo.num_datacenters()),
               "adaptive.pin_dc out of range");

  // Coded-shuffle knobs (docs/CODED.md). Checked only with coding on: the
  // default redundancy_r = 2 must not reject single-datacenter topologies
  // that never code.
  const CodedConfig& c = cfg.coded;
  if (c.enabled) {
    GS_CHECK_MSG(c.redundancy_r >= 1,
                 "coded.redundancy_r must be >= 1, got " << c.redundancy_r);
    GS_CHECK_MSG(c.redundancy_r <= topo.num_datacenters(),
                 "coded.redundancy_r (" << c.redundancy_r
                                        << ") exceeds the datacenter count ("
                                        << topo.num_datacenters() << ")");
    GS_CHECK_MSG(cfg.scheme == Scheme::kSpark,
                 "coded shuffle replaces the baseline fetch path; it cannot "
                 "combine with "
                     << SchemeName(cfg.scheme));
  }
}

}  // namespace

const char* AggregatorPolicyName(AggregatorPolicy policy) {
  switch (policy) {
    case AggregatorPolicy::kLargestInput: return "largest-input";
    case AggregatorPolicy::kRandom: return "random";
    case AggregatorPolicy::kSmallestInput: return "smallest-input";
  }
  return "unknown";
}

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSpark: return "Spark";
    case Scheme::kCentralized: return "Centralized";
    case Scheme::kAggShuffle: return "AggShuffle";
  }
  return "unknown";
}

GeoCluster::GeoCluster(Topology topo, RunConfig config)
    : topo_(std::move(topo)),
      config_(config),
      root_rng_(config.seed) {
  GS_CHECK(topo_.num_nodes() > 0);
  ValidateConfig(config_, topo_);
  if (config_.observe.metrics) {
    registry_ = std::make_unique<MetricsRegistry>();
    sim_.AttachMetrics(&registry_->counter("simcore.events_scheduled"),
                       &registry_->counter("simcore.events_executed"));
    sim_.AttachQueueHealthMetrics(
        &registry_->gauge("simcore.cancelled_pending"),
        &registry_->counter("simcore.heap_compactions"));
  }
  network_ = std::make_unique<Network>(sim_, topo_, config_.net,
                                       root_rng_.Split("net-jitter"),
                                       registry_.get());
  // Must precede any flow: the transport registers its service resources
  // here.
  transport_ = std::make_unique<ShuffleTransport>(
      config_.transport, config_.scale, *network_, registry_.get());
  if (registry_ != nullptr && config_.observe.utilization_bucket > 0) {
    network_->EnableUtilization(config_.observe.utilization_bucket);
  }
  blocks_ =
      std::make_unique<BlockManager>(topo_.num_nodes(), registry_.get());
  scheduler_ = std::make_unique<TaskScheduler>(sim_, topo_, config_.sched,
                                               registry_.get());
  disk_ = std::make_unique<DiskModel>(sim_, topo_.num_nodes(),
                                      config_.cost.disk_read_rate,
                                      config_.cost.disk_write_rate,
                                      registry_.get());
  // An explicit --threads choice is honored exactly (tests rely on forcing
  // real interleaving); the default is the host width, where
  // oversubscribing pure compute only costs context switches.
  compute_pool_ = std::make_unique<ThreadPool>(
      config_.compute_threads > 0 ? config_.compute_threads
                                  : ThreadPool::HardwareConcurrency());
  // The driver is the first non-worker node; if all nodes are workers,
  // node 0 doubles as the driver.
  driver_node_ = 0;
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    if (!topo_.node(n).worker) {
      driver_node_ = n;
      break;
    }
  }
  if (!config_.fault.plan.empty()) {
    faults_ = std::make_unique<FaultInjector>(*this, config_.fault.plan,
                                              root_rng_.Split("faults"));
  }
  if (config_.observe.trace) StartTraceRecording();
}

GeoCluster::~GeoCluster() = default;

Dataset GeoCluster::CreateSource(
    std::string name, std::vector<SourceRdd::Partition> partitions) {
  auto rdd = std::make_shared<SourceRdd>(NextRddId(), std::move(name),
                                         std::move(partitions));
  return Dataset(this, std::move(rdd));
}

Dataset GeoCluster::Parallelize(std::string name,
                                const std::vector<Record>& records,
                                int partitions_per_dc) {
  GS_CHECK(partitions_per_dc > 0);
  // Enumerate worker nodes round-robin across datacenters. Indexing must
  // be over each datacenter's *workers*: mixing in non-worker nodes (the
  // dedicated driver) would skip a worker slot and silently drop the
  // partition whenever k mod node-count lands on the driver.
  std::vector<std::vector<NodeIndex>> workers_in(
      static_cast<std::size_t>(topo_.num_datacenters()));
  for (DcIndex dc = 0; dc < topo_.num_datacenters(); ++dc) {
    for (NodeIndex n : topo_.nodes_in(dc)) {
      if (topo_.node(n).worker) {
        workers_in[static_cast<std::size_t>(dc)].push_back(n);
      }
    }
  }
  std::vector<NodeIndex> nodes;
  for (int k = 0; k < partitions_per_dc; ++k) {
    for (DcIndex dc = 0; dc < topo_.num_datacenters(); ++dc) {
      const auto& workers = workers_in[static_cast<std::size_t>(dc)];
      if (workers.empty()) continue;
      nodes.push_back(workers[static_cast<std::size_t>(
          k % static_cast<int>(workers.size()))]);
    }
  }
  GS_CHECK(!nodes.empty());
  const std::size_t per =
      (records.size() + nodes.size() - 1) / nodes.size();
  std::vector<SourceRdd::Partition> partitions;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<Record> chunk;
    const std::size_t begin = i * per;
    const std::size_t end = std::min(records.size(), begin + per);
    if (begin < end) {
      chunk.assign(records.begin() + begin, records.begin() + end);
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(chunk));
    part.node = nodes[i];
    part.bytes = SerializedSize(*part.records);
    partitions.push_back(std::move(part));
  }
  return CreateSource(std::move(name), std::move(partitions));
}

void GeoCluster::StartTraceRecording() {
  if (!trace_) {
    trace_ = std::make_unique<TraceCollector>();
    network_->SetFlowObserver([this](const FlowRecord& f) {
      TraceSpan span;
      span.kind = TraceSpan::Kind::kFlow;
      span.category = FlowKindName(f.kind);
      span.dc = topo_.dc_of(f.src);
      span.peer_dc = topo_.dc_of(f.dst);
      span.node = f.src;
      span.bytes = f.bytes;
      span.start = f.started;
      span.end = f.finished;
      std::ostringstream name;
      name << FlowKindName(f.kind) << " " << topo_.node(f.src).name << " -> "
           << topo_.node(f.dst).name;
      span.name = name.str();
      trace_->Add(std::move(span));
    });
  }
}

NodeIndex GeoCluster::SourceLocation(const SourceRdd& rdd,
                                     int partition) const {
  auto it = relocations_.find(RelocationKey(rdd.id(), partition));
  NodeIndex home =
      it != relocations_.end() ? it->second : rdd.partition(partition).node;
  if (scheduler_->node_up(home)) return home;
  // The home node is down: HDFS keeps replicas within the datacenter, so
  // read from a live worker there instead.
  for (NodeIndex n : topo_.nodes_in(topo_.dc_of(home))) {
    if (topo_.node(n).worker && scheduler_->node_up(n)) return n;
  }
  return home;  // no live replica holder; keep the original location
}

void GeoCluster::CrashNode(NodeIndex node, SimTime restart_after) {
  GS_CHECK(node >= 0 && node < topo_.num_nodes());
  GS_CHECK_MSG(topo_.node(node).worker, "cannot crash the driver");
  if (!scheduler_->node_up(node)) return;  // already down
  GS_LOG_INFO << "node crash: " << topo_.node(node).name
              << " at t=" << sim_.Now()
              << (restart_after > 0 ? " (will restart)" : "");
  scheduler_->SetNodeDown(node);
  blocks_->DropNode(node);
  // Notify every executing job, in job-id order (determinism).
  for (const auto& js : jobs_) {
    if (js->runner != nullptr) js->runner->OnNodeCrashed(node);
  }
  if (restart_after > 0) {
    sim_.Schedule(restart_after, [this, node] { RestartNode(node); });
  }
}

void GeoCluster::RestartNode(NodeIndex node) {
  GS_LOG_INFO << "node restart: " << topo_.node(node).name
              << " at t=" << sim_.Now();
  scheduler_->SetNodeUp(node);
}

void GeoCluster::LoseShuffleBlocks(NodeIndex node) {
  blocks_->DropShuffleOnNode(node);
}

void GeoCluster::SetWanDegradation(DcIndex src, DcIndex dst, double factor,
                                   bool symmetric) {
  network_->SetWanDegradation(src, dst, factor);
  if (symmetric) network_->SetWanDegradation(dst, src, factor);
  // Notify every executing job, in job-id order (determinism); the runner
  // no-ops unless adaptive replanning is on.
  for (const auto& js : jobs_) {
    if (js->runner != nullptr) js->runner->OnWanDegraded(src, dst);
  }
}

RddPtr GeoCluster::MaybeRewrite(const RddPtr& final_rdd) {
  if (config_.scheme != Scheme::kAggShuffle) return final_rdd;
  // A memo shared across actions keeps rewritten nodes (and thus cache
  // identities) stable from one job to the next.
  auto it = rewrite_memo_.find(final_rdd.get());
  if (it != rewrite_memo_.end()) return it->second;
  RddPtr rewritten = InsertTransfersBeforeShuffles(
      final_rdd, [this] { return NextRddId(); });
  // Remember the mapping for every node by re-walking both graphs is
  // unnecessary: memoize the root only; shared subtrees are preserved by
  // the rewriter itself via structural sharing.
  rewrite_memo_.emplace(final_rdd.get(), rewritten);
  return rewritten;
}

void GeoCluster::CentralizeInputs(const RddPtr& final_rdd, JobMetrics& job,
                                  std::function<void()> start) {
  if (!centralized()) {
    start();
    return;
  }
  const std::vector<const SourceRdd*> sources = CollectSources(*final_rdd);
  std::vector<Bytes> per_dc(topo_.num_datacenters(), 0);
  for (const SourceRdd* src : sources) {
    for (int p = 0; p < src->num_partitions(); ++p) {
      per_dc[topo_.dc_of(SourceLocation(*src, p))] += src->partition(p).bytes;
    }
  }
  DcIndex central = 0;
  for (DcIndex dc = 1; dc < topo_.num_datacenters(); ++dc) {
    if (per_dc[dc] > per_dc[central]) central = dc;
  }

  const std::vector<NodeIndex>& central_nodes = topo_.nodes_in(central);
  std::vector<NodeIndex> central_workers;
  for (NodeIndex n : central_nodes) {
    if (topo_.node(n).worker) central_workers.push_back(n);
  }
  GS_CHECK(!central_workers.empty());

  StageMetrics relocation;
  relocation.id = -1;
  relocation.name = "input-centralization";
  relocation.submitted = sim_.Now();
  relocation.first_task_started = sim_.Now();

  auto pending = std::make_shared<int>(1);
  auto metrics_slot = std::make_shared<StageMetrics>(relocation);
  auto done_one = [this, pending, metrics_slot, &job, start] {
    if (--*pending == 0) {
      metrics_slot->completed = sim_.Now();
      job.stages.push_back(*metrics_slot);
      start();
    }
  };

  std::size_t rr = 0;
  for (const SourceRdd* src : sources) {
    for (int p = 0; p < src->num_partitions(); ++p) {
      NodeIndex loc = SourceLocation(*src, p);
      if (topo_.dc_of(loc) == central) continue;
      NodeIndex dest = central_workers[rr++ % central_workers.size()];
      const std::int64_t key = RelocationKey(src->id(), p);
      ++*pending;
      metrics_slot->num_tasks++;
      job.AccountFlow(topo_, loc, dest, src->partition(p).bytes,
                      FlowKind::kCentralize);
      network_->StartFlow(loc, dest, src->partition(p).bytes,
                          FlowKind::kCentralize, [this, key, dest, done_one] {
                            relocations_[key] = dest;
                            done_one();
                          });
    }
  }
  done_one();  // release the guard
}

// ---------------------------------------------------------------------------
// Job service
// ---------------------------------------------------------------------------

JobHandle GeoCluster::Submit(const RddPtr& final_rdd, ActionKind action,
                             JobOptions opts) {
  GS_CHECK(final_rdd != nullptr);
  GS_CHECK_MSG(opts.weight > 0, "JobOptions::weight must be positive");
  GS_CHECK_MSG(opts.arrival_delay >= 0, "negative arrival_delay");
  const JobId id = next_job_id_++;
  GS_CHECK(static_cast<std::size_t>(id) == jobs_.size());
  auto js = std::make_unique<JobState>();
  js->id = id;
  js->opts = std::move(opts);
  js->action = action;
  js->rdd = final_rdd;
  const SimTime delay = js->opts.arrival_delay;
  jobs_.push_back(std::move(js));
  if (registry_ != nullptr) {
    registry_->counter("service.jobs_submitted").Add(1);
  }
  if (delay > 0) {
    sim_.Schedule(delay, [this, id] { ArriveJob(id); });
  } else {
    ArriveJob(id);
  }
  return JobHandle(this, id);
}

RunResult GeoCluster::RunJob(const RddPtr& final_rdd, ActionKind action) {
  return Submit(final_rdd, action).Wait();
}

void GeoCluster::RunUntilQuiescent() {
  sim_.Run();
  for (const auto& js : jobs_) {
    GS_CHECK_MSG(js->finalized,
                 "simulation drained before job " << js->id
                 << " completed — a task or flow was lost");
  }
  ReapRunners();
}

void GeoCluster::ReapRunners() {
  // Only safe at full quiescence: a finalized job's runner can still be
  // the target of queued events (epoch-guarded stale callbacks, and live
  // speculative backups that finish — and release their executor slots —
  // after the result stage). Destroying it earlier would fire those events
  // into freed memory and leak the backups' slots.
  for (const auto& js : jobs_) {
    if (js->finalized) js->runner.reset();
  }
}

void GeoCluster::ArriveJob(JobId id) {
  JobState& js = *jobs_[static_cast<std::size_t>(id)];
  js.submitted_at = sim_.Now();
  admission_queue_.push_back(id);
  TryAdmit();
}

void GeoCluster::TryAdmit() {
  const int cap = config_.service.max_concurrent_jobs;
  while (!admission_queue_.empty() && (cap <= 0 || running_jobs_ < cap)) {
    // Highest priority first; FIFO (arrival order) among equals.
    std::size_t best = 0;
    for (std::size_t i = 1; i < admission_queue_.size(); ++i) {
      if (jobs_[static_cast<std::size_t>(admission_queue_[i])]->opts.priority >
          jobs_[static_cast<std::size_t>(admission_queue_[best])]
              ->opts.priority) {
        best = i;
      }
    }
    const JobId id = admission_queue_[best];
    admission_queue_.erase(admission_queue_.begin() +
                           static_cast<std::ptrdiff_t>(best));
    AdmitJob(*jobs_[static_cast<std::size_t>(id)]);
  }
  if (registry_ != nullptr) {
    registry_->gauge("service.queued_jobs").Set(queued_jobs());
    registry_->gauge("service.running_jobs").Set(running_jobs_);
  }
}

void GeoCluster::AdmitJob(JobState& js) {
  GS_CHECK(!js.admitted);
  js.admitted = true;
  ++running_jobs_;
  const SimTime queue_delay = sim_.Now() - js.submitted_at;
  if (registry_ != nullptr) {
    registry_->counter("service.jobs_admitted").Add(1);
    // 0.1s .. ~6500s in x3 steps, like engine.task_duration_s.
    const std::vector<double> bounds = ExponentialBounds(0.1, 3, 11);
    registry_->histogram("service.queue_delay_s", bounds)
        .Observe(queue_delay);
    registry_
        ->histogram("service.tenant." + js.opts.tenant + ".queue_delay_s",
                    bounds)
        .Observe(queue_delay);
  }
  GS_LOG_INFO << "job " << js.id << " (" << SchemeName(config_.scheme)
              << ", tenant " << js.opts.tenant << ") starting at t="
              << sim_.Now() << (queue_delay > 0 ? " after queueing" : "");
  const int tenant = TenantIndex(js.opts.tenant);
  scheduler_->SetTenantWeight(tenant, js.opts.weight);
  js.runner = std::make_unique<JobRunner>(
      *this, MaybeRewrite(js.rdd), js.action,
      root_rng_.Split(static_cast<std::uint64_t>(js.id) + 17), js.id,
      tenant);
  js.runner->Start();
}

void GeoCluster::OnRunnerDone(JobId id) {
  // Finalization is deferred one event so the runner's own call stack
  // fully unwinds first.
  sim_.Schedule(0, [this, id] { FinalizeJob(id); });
}

void GeoCluster::FinalizeJob(JobId id) {
  JobState& js = *jobs_[static_cast<std::size_t>(id)];
  GS_CHECK(js.runner != nullptr && js.runner->done());
  js.result = js.runner->TakeResult();
  // The runner itself stays alive until quiescence (ReapRunners): its
  // speculative backups may still be running and must complete to give
  // their slots back.
  --running_jobs_;

  js.result.metrics.job_id = id;
  js.result.metrics.tenant = js.opts.tenant;
  js.result.metrics.submitted = js.submitted_at;

  RunReport::JobRow row;
  row.job_id = id;
  row.tenant = js.opts.tenant;
  row.label = js.opts.label;
  row.submitted = js.submitted_at;
  row.started = js.result.metrics.started;
  row.completed = js.result.metrics.completed;
  row.cross_dc_bytes = js.result.metrics.cross_dc_bytes;
  row.task_failures = js.result.metrics.task_failures;
  job_rows_.push_back(row);

  if (registry_ != nullptr) {
    registry_->counter("service.jobs_completed").Add(1);
    const std::vector<double> bounds = ExponentialBounds(0.1, 3, 11);
    registry_->histogram("service.jct_s", bounds).Observe(row.jct());
    registry_->histogram("service.tenant." + js.opts.tenant + ".jct_s",
                         bounds)
        .Observe(row.jct());
  }
  if (trace_) {
    js.result.trace = std::make_unique<TraceCollector>(std::move(*trace_));
    trace_->Clear();
  }
  // The RunReport snapshot is deferred to TakeJobResult: cluster-wide
  // counters keep moving while the job's trailing events (stale fetches,
  // speculative backups) drain, and the sync path reports them settled.
  js.finalized = true;
  GS_LOG_INFO << "job " << id << " finished in " << js.result.metrics.jct()
              << "s, cross-DC " << ToMiB(js.result.metrics.cross_dc_bytes)
              << " MiB";
  // A finished job may free admission room for queued arrivals.
  TryAdmit();
}

bool GeoCluster::JobFinalized(JobId id) const {
  GS_CHECK(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
  return jobs_[static_cast<std::size_t>(id)]->finalized;
}

RunResult GeoCluster::TakeJobResult(JobId id) {
  GS_CHECK(id >= 0 && static_cast<std::size_t>(id) < jobs_.size());
  JobState& js = *jobs_[static_cast<std::size_t>(id)];
  while (!js.finalized) {
    GS_CHECK_MSG(sim_.Step(),
                 "simulation drained before job " << id
                 << " completed — a task or flow was lost");
  }
  // With no other job in flight, drain the trailing events the job left
  // behind (speculative backups, expired timers) so a synchronous Run()
  // ends quiescent, exactly like the pre-service single-job loop.
  if (running_jobs_ == 0 && admission_queue_.empty()) {
    sim_.Run();
    ReapRunners();
  }
  GS_CHECK_MSG(!js.taken, "result of job " << id << " already taken");
  js.taken = true;
  js.result.report = BuildReport(js.result.metrics, js.result.trace.get());
  return std::move(js.result);
}

int GeoCluster::TenantIndex(const std::string& name) {
  auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) return it->second;
  const int id = static_cast<int>(tenant_ids_.size());
  tenant_ids_.emplace(name, id);
  return id;
}

bool JobHandle::done() const { return cluster_->JobFinalized(id_); }

RunResult JobHandle::Wait() { return cluster_->TakeJobResult(id_); }

RunReport GeoCluster::BuildReport(const JobMetrics& job,
                                  const TraceCollector* trace) const {
  RunReport report;
  report.scheme = SchemeName(config_.scheme);
  report.seed = config_.seed;
  report.scale = config_.scale;
  report.num_datacenters = topo_.num_datacenters();
  report.num_nodes = topo_.num_nodes();
  report.job = job;
  report.jobs = job_rows_;

  if (registry_ != nullptr) {
    report.metrics_enabled = true;
    report.metrics = registry_->Snapshot();
  }

  const LinkUtilization* util = network_->utilization();
  if (util != nullptr) {
    report.utilization_bucket = util->bucket_width();
    for (int l = 0; l < util->num_links(); ++l) {
      if (util->total(l) == 0) continue;
      const WanLinkSpec& spec = topo_.wan_link(l);
      RunReport::LinkSeries series;
      series.src_dc = spec.src;
      series.dst_dc = spec.dst;
      series.src_name = topo_.datacenter(spec.src).name;
      series.dst_name = topo_.datacenter(spec.dst).name;
      series.base_rate = spec.base_rate;
      series.total_bytes = util->total(l);
      series.buckets = util->buckets(l);
      report.links.push_back(std::move(series));
    }
  }

  const auto& rates = config_.observe.egress_usd_per_gib;
  const WanPricing pricing =
      rates.size() == static_cast<std::size_t>(topo_.num_datacenters())
          ? WanPricing(rates)
          : WanPricing::Uniform(topo_.num_datacenters());
  // Bytes staged through an object store skip the egress tariff and are
  // billed by the store tariff instead; with no store flows the store
  // share is exactly zero.
  report.egress_cost_usd = pricing.EgressCostUsd(network_->meter(), topo_);
  report.store_cost_usd = WanPricing::StoreCostUsd(network_->meter(), topo_,
                                                   ObjectStoreTariff{});
  report.cost_usd = report.egress_cost_usd + report.store_cost_usd;
  report.cost_usd_full_scale = report.cost_usd * config_.scale;
  report.transport = TransportKindName(config_.transport.kind);
  report.adaptive = config_.adaptive.enabled;
  report.coded = config_.coded.enabled;
  report.coded_redundancy_r =
      config_.coded.enabled ? config_.coded.redundancy_r : 0;

  if (trace != nullptr) {
    report.trace.enabled = true;
    for (const TraceSpan& s : trace->spans()) {
      ++report.trace.spans;
      switch (s.kind) {
        case TraceSpan::Kind::kTask: ++report.trace.task_spans; break;
        case TraceSpan::Kind::kStage: ++report.trace.stage_spans; break;
        case TraceSpan::Kind::kFlow:
          ++report.trace.flow_spans;
          report.trace.flow_bytes += s.bytes;
          break;
        case TraceSpan::Kind::kPhase: ++report.trace.phase_spans; break;
      }
    }
  }
  return report;
}

}  // namespace gs

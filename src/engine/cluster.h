// GeoCluster: the public entry point of the library.
//
// Owns the simulated cluster (event loop, network, storage, scheduler) and
// executes jobs under one of the three schemes. Datasets are created via
// CreateSource()/Parallelize() and transformed through the Dataset facade
// (engine/dataset.h); actions on a Dataset run a job on the simulated
// cluster and return results plus metrics.
//
// The cluster is a multi-job *service* (engine/job_api.h, docs/SERVICE.md):
// Submit() enqueues a job and returns a JobHandle immediately; concurrent
// jobs share executors and WAN links, with executor slots divided across
// tenants by weighted fair sharing. Dataset::Run(ActionKind) is a thin
// Submit + Wait for the common synchronous case.
//
// Typical use:
//
//   gs::Topology topo = gs::Ec2SixRegionTopology(scale);
//   gs::RunConfig cfg;
//   cfg.scheme = gs::Scheme::kAggShuffle;
//   cfg.cost = gs::CostModel{}.Scaled(scale);
//   cfg.observe.trace = true;  // optional: record spans
//   gs::GeoCluster cluster(topo, cfg);
//   gs::Dataset text = cluster.CreateSource("text", partitions);
//   auto counts = text.FlatMap(tokenize).ReduceByKey(gs::SumInt64(), 8);
//   gs::RunResult result = counts.Run(gs::ActionKind::kCollect);
//   // result.records, result.metrics, result.trace, result.report
//
// Concurrent jobs:
//
//   gs::JobHandle a = ds1.Submit(gs::ActionKind::kSave, {.tenant = "etl"});
//   gs::JobHandle b = ds2.Submit(gs::ActionKind::kCollect,
//                                {.tenant = "adhoc", .weight = 2.0});
//   cluster.RunUntilQuiescent();
//   gs::RunResult ra = a.Wait(), rb = b.Wait();
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "engine/job_api.h"
#include "engine/metrics.h"
#include "engine/run_config.h"
#include "engine/run_report.h"
#include "engine/trace.h"
#include "exec/disk.h"
#include "netsim/network.h"
#include "netsim/topology.h"
#include "rdd/rdd.h"
#include "sched/task_scheduler.h"
#include "simcore/simulator.h"
#include "storage/block_manager.h"
#include "storage/map_output_tracker.h"

namespace gs {

class Dataset;
class FaultInjector;
class JobRunner;
class ShuffleTransport;

class GeoCluster {
 public:
  GeoCluster(Topology topo, RunConfig config);
  ~GeoCluster();

  GeoCluster(const GeoCluster&) = delete;
  GeoCluster& operator=(const GeoCluster&) = delete;

  // Creates an input dataset from explicitly placed partitions.
  Dataset CreateSource(std::string name,
                       std::vector<SourceRdd::Partition> partitions);

  // Creates an input dataset by spreading `records` across the workers of
  // all datacenters round-robin, `partitions_per_dc` partitions each.
  Dataset Parallelize(std::string name, const std::vector<Record>& records,
                      int partitions_per_dc = 1);

  // --- job service (engine/job_api.h) ---

  // Submits a job computing `final_rdd` and returns without running it.
  // The job arrives now (or after opts.arrival_delay) and is admitted
  // immediately, or queued behind ServiceConfig::max_concurrent_jobs.
  // Drive it with JobHandle::Wait() or RunUntilQuiescent().
  JobHandle Submit(const RddPtr& final_rdd, ActionKind action,
                   JobOptions opts = {});

  // Runs a job to completion synchronously (Submit + Wait); called by
  // Dataset actions.
  RunResult RunJob(const RddPtr& final_rdd, ActionKind action);

  // Drains the simulation until every submitted job has finished; fatal if
  // a job is lost (the queue runs dry with a job incomplete). Results stay
  // with their handles.
  void RunUntilQuiescent();

  int running_jobs() const { return running_jobs_; }
  int queued_jobs() const { return static_cast<int>(admission_queue_.size()); }
  // One row per completed job, in completion order (mirrors report.jobs).
  const std::vector<RunReport::JobRow>& job_rows() const { return job_rows_; }

  const Topology& topology() const { return topo_; }
  const RunConfig& config() const { return config_; }
  Simulator& simulator() { return sim_; }
  Network& network() { return *network_; }
  // Shuffle transport of the kind RunConfig::transport.kind selects
  // (engine/transport/transport.h, docs/TRANSPORTS.md).
  ShuffleTransport& transport() { return *transport_; }
  BlockManager& blocks() { return *blocks_; }
  MapOutputTracker& tracker() { return tracker_; }
  TaskScheduler& scheduler() { return *scheduler_; }
  DiskModel& disk() { return *disk_; }
  // Pool executing tasks' real compute off the event loop; sized by
  // RunConfig::compute_threads (0 = hardware concurrency). Purely a
  // wall-clock accelerator — simulation results do not depend on it.
  ThreadPool& compute_pool() { return *compute_pool_; }
  NodeIndex driver_node() const { return driver_node_; }

  // Registry all components report into; nullptr when
  // RunConfig::observe.metrics is false.
  MetricsRegistry* metrics_registry() { return registry_.get(); }

  // Builds a report of everything observed so far, with `job` as the
  // per-job section. Every finishing job attaches one to its RunResult;
  // call this directly for a mid-workload or whole-workload snapshot.
  RunReport BuildReport(const JobMetrics& job,
                        const TraceCollector* trace) const;

  // Id allocators shared by the Dataset facade and graph rewrites.
  RddId NextRddId() { return next_rdd_id_++; }
  ShuffleId NextShuffleId() { return next_shuffle_id_++; }

  // Live collector spans are recorded into, or nullptr when tracing is
  // off. Internal: JobRunner adds task/stage spans through this.
  TraceCollector* trace() { return trace_.get(); }

  // Current (possibly relocated) node of a source partition. If the home
  // node is down, reads fall back to a live worker in the same datacenter
  // (HDFS keeps in-datacenter replicas).
  NodeIndex SourceLocation(const SourceRdd& rdd, int partition) const;

  // --- fault injection (see engine/fault_plan.h and docs/FAULTS.md) ---
  // Scheduled FaultPlan events (RunConfig::fault.plan) call these; tests
  // and benches may also invoke them directly mid-run via simulator events.

  // Crashes a worker: its slots and stored blocks are gone, running tasks
  // are rescheduled, lost map outputs are discovered at fetch time. With
  // restart_after > 0 a fresh executor rejoins that much later.
  void CrashNode(NodeIndex node, SimTime restart_after = 0);
  // Brings a fresh executor up on a crashed node (no blocks come back).
  void RestartNode(NodeIndex node);
  // Silently drops the node's shuffle blocks (disk corruption) without
  // killing its executor.
  void LoseShuffleBlocks(NodeIndex node);

  // Degrades (or restores, factor = 1) a directed WAN link and notifies
  // every executing job, in job-id order, so adaptive runners can replan
  // receiver placement (docs/ADAPTIVE.md). FaultPlan link events route
  // through here; calling network().SetWanDegradation directly changes
  // capacity without the notification.
  void SetWanDegradation(DcIndex src, DcIndex dst, double factor,
                         bool symmetric = false);

 private:
  friend class JobRunner;
  friend class JobHandle;

  // One submitted job's lifecycle state, indexed by JobId in jobs_.
  struct JobState {
    JobId id = -1;
    JobOptions opts;
    ActionKind action = ActionKind::kCollect;
    RddPtr rdd;
    SimTime submitted_at = 0;  // arrival time (after arrival_delay)
    bool admitted = false;
    bool finalized = false;
    bool taken = false;  // the handle moved the result out
    std::unique_ptr<JobRunner> runner;  // live while executing
    RunResult result;
  };

  // AggShuffle: memoized graph rewrite inserting transferTo before each
  // shuffle. The memo persists across actions so cached datasets keep their
  // identity between jobs.
  RddPtr MaybeRewrite(const RddPtr& final_rdd);

  // Installs the flow observer feeding trace_ (RunConfig::observe.trace).
  void StartTraceRecording();

  // --- job service internals ---
  void ArriveJob(JobId id);          // arrival: join the admission queue
  void TryAdmit();                   // admit while under the concurrency cap
  void AdmitJob(JobState& js);       // start a runner for the job
  void OnRunnerDone(JobId id);       // runner callback: defer finalization
  void FinalizeJob(JobId id);        // harvest the result, build the report
  void ReapRunners();                // at quiescence: free finished runners
  bool JobFinalized(JobId id) const;
  RunResult TakeJobResult(JobId id);  // JobHandle::Wait: pump + move out
  int TenantIndex(const std::string& name);

  Topology topo_;
  RunConfig config_;
  Simulator sim_;
  Rng root_rng_;
  // Declared before the components that hold handles into it.
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<Network> network_;
  // Constructed right after network_ (its service resources must register
  // before the first flow).
  std::unique_ptr<ShuffleTransport> transport_;
  std::unique_ptr<BlockManager> blocks_;
  MapOutputTracker tracker_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<ThreadPool> compute_pool_;
  std::unique_ptr<FaultInjector> faults_;
  NodeIndex driver_node_ = 0;

  RddId next_rdd_id_ = 0;
  ShuffleId next_shuffle_id_ = 0;
  int next_job_id_ = 0;

  // Job-service state: jobs_[id] is the job with that id (ids are dense).
  std::vector<std::unique_ptr<JobState>> jobs_;
  std::vector<JobId> admission_queue_;  // arrived, not yet admitted
  int running_jobs_ = 0;
  std::vector<RunReport::JobRow> job_rows_;  // completed jobs, in order
  // Tenant name -> dense scheduler tenant id, in first-seen order.
  std::unordered_map<std::string, int> tenant_ids_;

  std::unique_ptr<TraceCollector> trace_;
  std::unordered_map<const Rdd*, RddPtr> rewrite_memo_;
  // (source rdd id, partition) -> relocated node (Centralized scheme).
  std::unordered_map<std::int64_t, NodeIndex> relocations_;

  // Centralized scheme (Sec. V-A): copies every source partition of
  // `final_rdd` outside the central datacenter — the one storing the most
  // input bytes — onto its workers, accounting the moves and the
  // relocation phase in `job`, then calls `start`. Under the other schemes
  // calls `start` at once.
  void CentralizeInputs(const RddPtr& final_rdd, JobMetrics& job,
                        std::function<void()> start);
  // Centralized scheme: JobRunner then keeps each task in its preferred
  // datacenter (kDcOnly), as the inputs already sit there.
  bool centralized() const { return config_.scheme == Scheme::kCentralized; }
};

}  // namespace gs

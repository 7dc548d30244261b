// JobRunner: executes one action (job) on the simulated cluster.
//
// Drives the full lifecycle the paper describes:
//   build stages -> submit ready stages -> schedule tasks (locality-aware)
//   -> gather (disk reads / fetch flows / transfer receives) -> compute
//   (real record transformation + simulated CPU time) -> output (shuffle
//   write / transfer push / result delivery) -> stage completion -> next
//   stages -> job completion.
//
// Scheme differences are confined to three points:
//  * kAggShuffle rewrites the graph (transferTo before every shuffle) —
//    done by GeoCluster before the runner sees it;
//  * kCentralized runs an input-relocation phase before stage submission
//    (GeoCluster::CentralizeInputs);
//  * transfer-producer stages push each computed partition to a paired
//    receiver task the moment it is ready (pipelining, Fig. 1b), while
//    fetch-based shuffles wait for the stage barrier (Fig. 1a). Where the
//    receivers land, and where adaptive replanning moves them, is decided
//    by ReceiverPlacement (engine/shuffle/receiver_placement.h).
// Coded shuffle is a fourth mechanism on top of the fetch path:
// CodedExchange (engine/shuffle/coded_exchange.h), absent when it is off.
// The runner reads no shuffle knob itself; it calls these units at fixed
// hook points of the task lifecycle.
#pragma once

#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dag/stage.h"
#include "engine/cluster.h"
#include "engine/shuffle/coded_exchange.h"
#include "engine/shuffle/receiver_placement.h"
#include "exec/task_compute.h"

namespace gs {

class JobRunner {
 public:
  JobRunner(GeoCluster& cluster, RddPtr final_rdd, ActionKind action,
            Rng rng, JobId job_id, int tenant);
  // Blocks until the compute pool is idle: attempts discarded by crash
  // recovery may still be computing jobs that reference this runner's
  // stage structures.
  ~JobRunner();

  // Builds the stage graph and schedules the job's first events; the job
  // then executes as the shared simulator advances, concurrently with any
  // other submitted jobs. On completion the runner notifies GeoCluster
  // (OnRunnerDone), which harvests TakeResult() and destroys the runner.
  void Start();

  bool done() const { return job_done_; }

  // Assembles stage metrics, engine counters and the result records.
  // Requires done(); call exactly once. The trace and report slots are
  // filled in by GeoCluster::FinalizeJob.
  RunResult TakeResult();

  // Fault notification from GeoCluster::CrashNode: the node's executor and
  // blocks are already gone; restart every affected in-flight task and
  // recover receivers whose pushed data was lost (see docs/FAULTS.md).
  void OnNodeCrashed(NodeIndex node);

  // Notification from GeoCluster::SetWanDegradation: a WAN link changed
  // capacity (degradation or restore). With adaptive replanning on
  // (AdaptiveConfig::enabled, no pin), re-ranks the aggregator
  // datacenters of every in-flight transfer stage and moves
  // not-yet-started receiver shards off newly-inferior datacenters
  // (docs/ADAPTIVE.md). A no-op otherwise.
  void OnWanDegraded(DcIndex src, DcIndex dst);

 private:
  struct TaskRun {
    StageId stage = -1;
    int partition = -1;
    int attempt = 0;
    // Bumped every time this task is restarted or recovered. Every async
    // continuation captures the epoch at schedule time and no-ops if the
    // task moved on — this is how a crash "kills" callbacks belonging to a
    // dead attempt without tracking them individually.
    int epoch = 0;
    NodeIndex node = kNoNode;
    bool assigned = false;
    bool done = false;
    bool speculative = false;   // backup copy of a straggler
    bool has_backup = false;    // a speculative copy was launched
    SimTime assigned_at = 0;

    // Gather state.
    int pending_gathers = 0;
    // The boundary records as shared chunks, in gather order; the loop
    // moves pointers only (copies happen inside the compute job).
    std::vector<RecordsPtr> gathered;
    std::vector<NodeIndex> gather_srcs;  // remote nodes being read from
    Bytes in_bytes = 0;
    bool gather_is_processed = false;  // records came from a cache hit
    const Rdd* cut_rdd = nullptr;
    int cut_partition = -1;
    // Missing map outputs discovered while building this shard's fetch
    // list. The gather still runs for the blocks that exist — by the time
    // a reducer notices a dead server, its concurrent fetches from healthy
    // nodes have already moved (and wasted) their bytes — and the attempt
    // fails once the partial gather lands.
    ShuffleId fetch_failed_sid = -1;
    std::vector<int> fetch_failed_maps;

    // In-flight compute (docs/PERF.md): submitted to the pool when the
    // gather starts and joined at the simulated gather-done event; for a
    // receiver, submitted when its inbox is set and joined when its write
    // phase starts. A restart simply overwrites the future; the orphaned
    // job's result is dropped.
    std::future<TaskComputeResult> compute;

    // Receiver state (stages starting at a TransferredRdd). The inbox is
    // retained after execution so a lost receiver node can be re-pushed
    // without recomputing the producer (the producer keeps its transfer
    // output buffered until the receiver stage completes).
    bool producer_done = false;
    bool receiver_started = false;
    bool data_landed = false;   // pushed bytes arrived on `node`
    int push_retries = 0;
    bool push_fallback = false;  // degraded to producer-local placement
    RecordsPtr inbox;
    Bytes inbox_bytes = 0;
    NodeIndex producer_node = kNoNode;
  };

  struct StageRun {
    Stage stage;
    StageMetrics metrics;
    bool submitted = false;
    bool done = false;
    // Pruned: every downstream consumer is satisfied from cached blocks
    // (Spark's missing-parent-stages check); the stage never runs.
    bool skipped = false;
    // A receiver stage whose every partition is cache-covered runs as a
    // normal stage (gathering from the cache) instead of pairing with its
    // (pruned) producer.
    bool standalone = false;
    int tasks_done = 0;
    std::vector<std::unique_ptr<TaskRun>> tasks;
    // Speculative backup attempts (spark.speculation) and which partitions
    // already have a winning attempt.
    std::vector<std::unique_ptr<TaskRun>> backups;
    std::vector<bool> partition_done;
    std::vector<double> completed_durations;
    bool spec_check_scheduled = false;

    // Paired with a transfer producer: tasks receive pushed partitions.
    bool is_receiver() const { return stage.starts_at_transfer && !standalone; }
    // Pushes each computed partition to a paired receiver task.
    bool is_transfer_producer() const {
      return stage.output == StageOutputKind::kTransferProduce &&
             stage.transfer_consumer >= 0;
    }
  };

  // --- stage orchestration ---
  // Marks stages whose outputs are fully cache-covered as skipped, so
  // cached datasets are not recomputed (and not re-pushed) by later jobs.
  void PruneCachedStages();
  void SubmitReadyStages();
  bool StageIsReady(const StageRun& sr) const;
  void SubmitStage(StageId id);
  void LaunchTasks(StageId id);
  void OnStageDone(StageId id);

  // --- task lifecycle ---
  // A continuation calling `fn` on `task` that no-ops once the task moved
  // to a new attempt (the epoch guard; see TaskRun::epoch).
  auto Guarded(TaskRun& task, void (JobRunner::*fn)(TaskRun&));
  std::vector<NodeIndex> PreferredNodes(const StageRun& sr, int partition);
  void SubmitTask(TaskRun& task);
  void OnAssigned(TaskRun& task, NodeIndex node);
  void StartGather(TaskRun& task);
  void GatherArrived(TaskRun& task);  // one gather op finished
  // Packages the gathered records into a pure compute job and submits it
  // to the cluster's ThreadPool; the future lands in task.compute.
  void SubmitCompute(TaskRun& task);
  // The stage-level part of a task's compute job; callers fill `start`.
  // `combine` gates the stage's pre-output combine.
  TaskComputeSpec ComputeSpec(const StageRun& sr, int partition,
                              bool combine) const;
  void OnGatherDone(TaskRun& task);
  void OnComputeDone(TaskRun& task, TaskComputeResult out);
  void OnTaskFailed(TaskRun& task);
  void FinishTask(TaskRun& task);

  // --- fault recovery ---
  // Starts a fresh attempt: bumps the epoch (orphaning every continuation
  // of the old one) and the attempt count, unassigns the task and clears
  // its gather state. Slot release and resubmission stay with the caller.
  void ResetAttempt(TaskRun& task);
  // A reducer found map outputs of `sid` missing while building its fetch
  // list: fail the attempt, invalidate the lost outputs (epoch bump),
  // resubmit exactly the missing partitions of the parent stage, and park
  // the reducer until the parent re-completes (Spark's fetch-failure path).
  void HandleFetchFailure(TaskRun& task, ShuffleId sid,
                          const std::vector<int>& missing);
  // Restarts a running task whose node died or whose gather source died.
  void RestartTask(TaskRun& task);
  // Re-runs a finished task (lost output that must be regenerated). Undoes
  // the stage's completion bookkeeping; the stage re-fires OnStageDone when
  // the re-run finishes.
  void ResubmitCompletedTask(StageRun& sr, TaskRun& task);
  // The receiver's node died: re-place it and re-push the retained inbox
  // after an exponential backoff, falling back to the producer's own node
  // (push degrades to fetch) once retries are exhausted.
  void RecoverReceiver(TaskRun& receiver);
  StageId StageWritingShuffle(ShuffleId sid) const;
  // Launches backup copies of stragglers once enough of the stage is done
  // (spark.speculation); only plain map/reduce/result stages speculate.
  void MaybeSpeculate(StageRun& sr);

  // --- transfer (push) path ---
  void NotifyReceiver(StageRun& producer_sr, TaskRun& producer_task,
                      std::vector<Record> records, Bytes push_bytes);
  void TryDeliver(TaskRun& receiver);
  void ReceiverGotData(TaskRun& receiver);  // data landed: request a slot
  // Submits the receiver's compute — a pure function of (stage, partition,
  // inbox) — to the pool as soon as the inbox is set, so it overlaps the
  // push and every other receiver instead of blocking the loop.
  void SubmitReceiverCompute(TaskRun& receiver);
  // Slot acquired: joins the receiver's compute (resubmitting it from the
  // retained inbox if a recovery re-run already consumed it) and schedules
  // the write phase.
  void ExecuteReceiver(TaskRun& receiver);
  // The producer's output is gone (its node died before the push landed):
  // drops the inbox and the compute future with it; the producer's re-run
  // re-notifies and submits a fresh one.
  void DropInbox(TaskRun& receiver);
  // If `node` held the partition's producer output and its push has not
  // landed, orphans the receiver's delivery and drops its inbox so the
  // producer's re-run re-pushes; returns whether it did.
  bool DropUnlandedPush(StageRun& producer_sr, int partition, NodeIndex node);
  // The receiver's push source died: drops the inbox and re-runs the
  // producer task, which re-notifies. The receiver must already be placed.
  void RerunProducer(TaskRun& receiver);

  // --- adaptive replanning (docs/ADAPTIVE.md) ---
  // Re-ranks the aggregator datacenters of every in-flight transfer stage,
  // rate limited per stage: moves not-yet-started receiver shards off
  // datacenters the bandwidth-aware ranking now puts lower
  // (hysteresis-guarded) and degrades individual shards push->fetch when
  // their push path's measured bandwidth fell below kDegradeThreshold x
  // base rate. ReceiverPlacement
  // decides; this applies its decisions to the receiver tasks.
  void ReplanReceivers();
  // One consumer stage's replanning pass; returns true if anything moved.
  bool ReplanStage(StageRun& consumer);

  // --- helpers ---
  // The scheduler's id of the task's requests, unique across every job
  // sharing the scheduler (UpdatePreferences finds a queued one by it).
  TaskId SchedulerTaskId(const TaskRun& task) const;
  // Registers a compute job's cache fills on the node that ran it.
  void CommitCacheFills(NodeIndex node,
                        const std::vector<EvalResult::CacheFill>& fills);
  double StragglerFactor();
  StageRun& stage_run(StageId id) { return *stage_runs_[id]; }
  bool IsReducerStage(const StageRun& sr) const;

  GeoCluster& cluster_;
  Simulator& sim_;
  const Topology& topo_;
  const RunConfig& config_;
  RddPtr final_rdd_;
  ActionKind action_;
  Rng rng_;
  JobId job_id_ = -1;
  int tenant_ = 0;  // scheduler tenant id tasks bill their slots to

  std::vector<std::unique_ptr<StageRun>> stage_runs_;
  StageId result_stage_ = -1;
  bool job_done_ = false;

  // Reduce tasks parked by a fetch failure, keyed by the parent stage they
  // wait on; resubmitted when that stage re-completes.
  std::unordered_map<StageId, std::vector<TaskRun*>> waiting_on_stage_;

  std::vector<std::vector<Record>> results_;  // per result partition
  JobMetrics metrics_;

  ReceiverPlacement placement_;
  std::unique_ptr<CodedExchange> coded_;  // null unless coding is on
};

}  // namespace gs

#include "engine/job_runner.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "dag/dag_scheduler.h"
#include "data/compression.h"
#include "engine/transport/transport.h"
#include "exec/evaluator.h"

namespace gs {
namespace {

// Serialized size of a save-acknowledgement sent to the driver.
constexpr Bytes kSaveAckBytes = 16;
// Hand-off latency for a transfer whose producer and receiver share a node.
constexpr SimTime kLocalHandoff = Millis(1);
// Fraction of a transfer producer's compute after which its push departs
// (intra-task pipelining, Sec. IV-B).
constexpr double kEarlyPushFraction = 0.3;
// Fraction of a failing reduce task's compute after which the injected
// failure strikes (the paper's Fig. 2 experiment).
constexpr double kFailurePoint = 0.5;

// Speculative execution (spark.speculation): once this fraction of a
// stage's tasks finished, a running task slower than kSpeculationMultiplier
// x the median duration gets a backup copy.
constexpr double kSpeculationQuantile = 0.75;
constexpr double kSpeculationMultiplier = 1.5;

// Spark's REDUCER_PREF_LOCS_FRACTION: a node storing at least this fraction
// of a shard's input is preferred for its reduce task.
constexpr double kReducerPrefFraction = 0.2;

// Transfer-push recovery: when a receiver's node dies, the push is retried
// against a fresh node in the aggregator datacenter after an exponential
// backoff (kPushRetryBackoff * kPushBackoffFactor^(attempt-1)). Once
// kMaxPushRetries is exhausted the transfer degrades to the producer's own
// node — a co-located no-op — and downstream reducers fall back to fetching
// that partition over the WAN (push -> fetch fallback).
constexpr int kMaxPushRetries = 4;
constexpr SimTime kPushRetryBackoff = Seconds(1);
constexpr double kPushBackoffFactor = 2.0;

}  // namespace

JobRunner::JobRunner(GeoCluster& cluster, RddPtr final_rdd, ActionKind action,
                     Rng rng, JobId job_id, int tenant)
    : cluster_(cluster),
      sim_(cluster.simulator()),
      topo_(cluster.topology()),
      config_(cluster.config()),
      final_rdd_(std::move(final_rdd)),
      action_(action),
      rng_(std::move(rng)),
      job_id_(job_id),
      tenant_(tenant),
      placement_(cluster, rng_, metrics_),
      coded_(CodedExchange::Make(cluster, metrics_)) {}

JobRunner::~JobRunner() {
  // Compute jobs of discarded attempts and dropped receiver inboxes are
  // never joined (their stale continuations no-op); let them finish
  // before the stage structures they reference go away.
  cluster_.compute_pool().WaitIdle();
}

void JobRunner::Start() {
  metrics_.started = sim_.Now();

  std::vector<Stage> stages = BuildStages(final_rdd_);
  for (Stage& s : stages) {
    auto run = std::make_unique<StageRun>();
    run->stage = std::move(s);
    run->metrics.id = run->stage.id;
    run->metrics.name = run->stage.output_rdd->name();
    run->metrics.num_tasks = run->stage.num_tasks();
    stage_runs_.push_back(std::move(run));
  }
  result_stage_ = static_cast<StageId>(stage_runs_.size()) - 1;
  GS_CHECK(stage_run(result_stage_).stage.output ==
           StageOutputKind::kResult);
  results_.resize(stage_run(result_stage_).stage.num_tasks());

  PruneCachedStages();
  cluster_.CentralizeInputs(final_rdd_, metrics_, [this] {
    SubmitReadyStages();
  });
}

RunResult JobRunner::TakeResult() {
  GS_CHECK_MSG(job_done_, "TakeResult before the job completed");

  for (const auto& sr : stage_runs_) {
    if (!sr->skipped) metrics_.stages.push_back(sr->metrics);
  }

  if (MetricsRegistry* reg = cluster_.metrics_registry()) {
    reg->counter("engine.jobs_completed").Add(1);
    reg->counter("engine.task_failures").Add(metrics_.task_failures);
    reg->counter("engine.fetch_failures").Add(metrics_.fetch_failures);
    reg->counter("engine.node_crashes").Add(metrics_.node_crashes);
    reg->counter("engine.map_resubmissions").Add(metrics_.map_resubmissions);
    reg->counter("engine.push_retries").Add(metrics_.push_retries);
    reg->counter("engine.push_fallbacks").Add(metrics_.push_fallbacks);
    reg->counter("engine.adaptive_replans").Add(metrics_.replans);
    reg->counter("engine.adaptive_receivers_moved")
        .Add(metrics_.receivers_moved);
    reg->counter("engine.adaptive_fallbacks").Add(metrics_.adaptive_fallbacks);
    reg->counter("engine.placement_misses").Add(metrics_.placement_misses);
    reg->counter("engine.coded_groups").Add(metrics_.coded_groups);
    reg->counter("engine.coded_multicast_bytes")
        .Add(metrics_.coded_multicast_bytes);
    reg->counter("engine.coded_residual_bytes")
        .Add(metrics_.coded_residual_bytes);
    reg->counter("engine.coded_local_bytes").Add(metrics_.coded_local_bytes);
  }

  RunResult result;
  result.metrics = metrics_;
  for (auto& partition_records : results_) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(partition_records.begin()),
                          std::make_move_iterator(partition_records.end()));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Stage orchestration
// ---------------------------------------------------------------------------

void JobRunner::PruneCachedStages() {
  // Children have higher stage ids than their parents, so a reverse pass
  // visits consumers before producers. Start with everything potentially
  // skippable except the result stage; un-skip what a live consumer needs.
  std::vector<bool> needed(stage_runs_.size(), false);
  needed[result_stage_] = true;
  for (StageId id = static_cast<StageId>(stage_runs_.size()) - 1; id >= 0;
       --id) {
    StageRun& sr = stage_run(id);
    if (!needed[id]) continue;

    // Which boundaries do this stage's tasks actually reach?
    bool reaches_transfer = false;
    std::vector<ShuffleId> reached_shuffles;
    for (int p = 0; p < sr.stage.num_tasks(); ++p) {
      EvalCut cut =
          FindEvalCut(*sr.stage.output_rdd, p, cluster_.blocks());
      if (cut.is_cached_cut) continue;
      if (cut.rdd->kind() == RddKind::kTransferred) {
        reaches_transfer = true;
      } else if (cut.rdd->kind() == RddKind::kShuffled) {
        reached_shuffles.push_back(
            static_cast<const ShuffledRdd*>(cut.rdd)->shuffle().id);
      }
    }
    for (StageId parent : sr.stage.barrier_parents) {
      const Stage& ps = stage_run(parent).stage;
      GS_CHECK(ps.consumer_shuffle != nullptr);
      const ShuffleId sid = ps.consumer_shuffle->shuffle().id;
      if (std::find(reached_shuffles.begin(), reached_shuffles.end(), sid) !=
          reached_shuffles.end()) {
        needed[parent] = true;
      }
    }
    if (sr.stage.starts_at_transfer) {
      if (reaches_transfer) {
        needed[sr.stage.transfer_producer] = true;
      } else {
        sr.standalone = true;  // fully cache-covered: run without pairing
      }
    }
  }
  for (StageId id = 0; id < static_cast<StageId>(stage_runs_.size()); ++id) {
    if (!needed[id]) {
      StageRun& sr = stage_run(id);
      sr.skipped = true;
      sr.submitted = true;
      sr.done = true;
    }
  }
}

bool JobRunner::StageIsReady(const StageRun& sr) const {
  if (sr.submitted || sr.done) return false;
  // Receiver stages are co-submitted with their producer, not by
  // readiness — unless cache coverage made them standalone.
  if (sr.is_receiver()) return false;
  for (StageId parent : sr.stage.barrier_parents) {
    if (!stage_runs_[parent]->done) return false;
  }
  return true;
}

void JobRunner::SubmitReadyStages() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& sr : stage_runs_) {
      if (StageIsReady(*sr)) {
        SubmitStage(sr->stage.id);
        progress = true;
      }
    }
  }
}

void JobRunner::SubmitStage(StageId id) {
  StageRun& sr = stage_run(id);
  GS_CHECK(!sr.submitted);
  sr.submitted = true;
  sr.metrics.submitted = sim_.Now();

  // Pair a transfer producer with its receiver stage: decide the aggregator
  // datacenter now (Sec. IV-D: the datacenter storing the largest amount of
  // map input, known before the map runs), then co-submit the receiver so
  // pushes pipeline with the producing tasks. Note: a placement plan is
  // always keyed by the stage whose *receiver* tasks land there; a stage
  // that both receives one transfer and produces the next (explicit
  // transferTo -> map -> automatic transferTo) keeps its own receiver
  // datacenter and assigns the new target to its consumer.
  if (sr.is_transfer_producer()) placement_.ChooseAggregators(sr.stage);

  // Create task states immediately; scheduling happens after the driver's
  // submit delay.
  sr.tasks.clear();
  sr.partition_done.assign(sr.stage.num_tasks(), false);
  for (int p = 0; p < sr.stage.num_tasks(); ++p) {
    auto task = std::make_unique<TaskRun>();
    task->stage = id;
    task->partition = p;
    sr.tasks.push_back(std::move(task));
  }

  sim_.Schedule(config_.cost.stage_submit_delay, [this, id] {
    LaunchTasks(id);
  });

  if (sr.stage.transfer_consumer >= 0) {
    StageRun& consumer = stage_run(sr.stage.transfer_consumer);
    // The receiver stage must not also wait on unfinished shuffles; the
    // Dataset facade cannot build such graphs.
    for (StageId parent : consumer.stage.barrier_parents) {
      GS_CHECK_MSG(stage_runs_[parent]->done,
                   "receiver stage has unfinished shuffle parents");
    }
    SubmitStage(sr.stage.transfer_consumer);
  }
}

void JobRunner::LaunchTasks(StageId id) {
  StageRun& sr = stage_run(id);
  if (sr.is_receiver()) {
    // Receiver tasks are submitted to the scheduler one-by-one as their
    // producer task is assigned (their preferences depend on the producer's
    // node: co-located partitions make the receiver a no-op, Sec. IV-C2).
    return;
  }
  for (auto& task : sr.tasks) SubmitTask(*task);
}

void JobRunner::OnStageDone(StageId id) {
  StageRun& sr = stage_run(id);
  GS_CHECK(!sr.done);
  // Coded shuffle: the exchange defers a shuffle-write stage's completion
  // until every shard is consolidated (docs/CODED.md).
  if (coded_ && coded_->Defer(sr.stage, [this, id] { OnStageDone(id); })) {
    return;
  }
  sr.done = true;
  sr.metrics.completed = sim_.Now();
  if (TraceCollector* trace = cluster_.trace()) {
    TraceSpan span;
    span.kind = TraceSpan::Kind::kStage;
    span.category = "stage";
    span.name = "stage" + std::to_string(id) + " (" + sr.metrics.name + ")";
    span.dc = topo_.dc_of(cluster_.driver_node());
    span.start = sr.metrics.submitted;
    span.end = sim_.Now();
    trace->Add(std::move(span));
  }
  // Reduce tasks parked by a fetch failure on this stage's shuffle can run
  // again now that the missing map outputs are regenerated.
  auto parked_it = waiting_on_stage_.find(id);
  if (parked_it != waiting_on_stage_.end()) {
    std::vector<TaskRun*> parked = std::move(parked_it->second);
    waiting_on_stage_.erase(parked_it);
    for (TaskRun* t : parked) SubmitTask(*t);
  }
  if (id == result_stage_) {
    job_done_ = true;
    metrics_.completed = sim_.Now();
    cluster_.OnRunnerDone(job_id_);
    return;
  }
  SubmitReadyStages();
}

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

auto JobRunner::Guarded(TaskRun& task, void (JobRunner::*fn)(TaskRun&)) {
  return [this, t = &task, epoch = task.epoch, fn] {
    if (t->epoch == epoch) (this->*fn)(*t);
  };
}

std::vector<NodeIndex> JobRunner::PreferredNodes(const StageRun& sr,
                                                 int partition) {
  EvalCut cut = FindEvalCut(*sr.stage.output_rdd, partition,
                            cluster_.blocks());
  if (cut.is_cached_cut) {
    return cluster_.blocks().Locations(
        BlockId::Cached(cut.rdd->id(), cut.partition));
  }
  switch (cut.rdd->kind()) {
    case RddKind::kSource: {
      const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
      return {cluster_.SourceLocation(src, cut.partition)};
    }
    case RddKind::kShuffled: {
      const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
      std::vector<NodeIndex> prefs =
          cluster_.tracker().PreferredShardLocations(
              s.shuffle().id, cut.partition, kReducerPrefFraction);
      if (coded_) {
        coded_->AppendAlternates(s.shuffle().id, cut.partition, &prefs);
      }
      return prefs;
    }
    default:
      return {};
  }
}

void JobRunner::SubmitTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  TaskRequest request;
  request.id = SchedulerTaskId(task);
  if (sr.is_receiver()) {
    // Receiver write phase: the pushed data already landed on task.node.
    GS_CHECK(task.node != kNoNode);
    request.preferred = {task.node};
    request.policy = PlacementPolicy::kNodeOnly;
  } else {
    request.preferred = PreferredNodes(sr, task.partition);
    if (cluster_.centralized() && !request.preferred.empty()) {
      // "After all data is centralized within a cluster, Spark works
      // within a datacenter" (Sec. V-A): tasks never spill back out.
      request.policy = PlacementPolicy::kDcOnly;
    } else if (coded_ && !request.preferred.empty() && IsReducerStage(sr)) {
      // Coded shuffle: the exchange consolidated every shard at its home
      // datacenter (docs/CODED.md); a reducer scheduled anywhere else
      // re-fetches the consolidated shard across the WAN and forfeits
      // the locality the replication paid for. The preference list holds
      // only home-datacenter nodes, so kDcOnly keeps the read local (and
      // still escapes if the home datacenter loses every worker).
      request.policy = PlacementPolicy::kDcOnly;
    }
  }
  TaskRun* task_ptr = &task;
  const int epoch = task.epoch;
  request.tenant = tenant_;
  request.on_assigned = [this, task_ptr, epoch](NodeIndex node,
                                                LocalityLevel) {
    if (task_ptr->epoch != epoch) {
      // The task was restarted or parked while this assignment was in
      // flight; give the slot back (a fresh submission is already queued).
      cluster_.scheduler().ReleaseSlot(node, tenant_);
      return;
    }
    OnAssigned(*task_ptr, node);
  };
  cluster_.scheduler().Submit(std::move(request));
}

void JobRunner::OnAssigned(TaskRun& task, NodeIndex node) {
  StageRun& sr = stage_run(task.stage);
  if (!cluster_.scheduler().node_up(node)) {
    // The node crashed between the slot grant and its delivery; the slot
    // died with the executor. Balance the tenant's busy accounting and
    // queue the task again.
    cluster_.scheduler().ReleaseSlot(node, tenant_);
    SubmitTask(task);
    return;
  }
  task.node = node;
  task.assigned = true;
  task.assigned_at = sim_.Now();
  if (sr.metrics.first_task_started == 0) {
    sr.metrics.first_task_started = sim_.Now();
  }

  // A transfer producer's assignment fixes the pairing for its receiver:
  // decide the receiver's destination node now, so the push can start the
  // instant the producer finishes. A producer retry keeps the placement.
  if (sr.is_transfer_producer()) {
    TaskRun& receiver =
        *stage_run(sr.stage.transfer_consumer).tasks[task.partition];
    if (receiver.node == kNoNode) {
      receiver.producer_node = node;
      receiver.node = placement_.Place(sr.stage.transfer_consumer, node);
    }
  }

  if (sr.is_receiver()) {
    // Receiver write phase: the slot was requested after the data landed.
    ExecuteReceiver(task);
    return;
  }
  sim_.Schedule(config_.cost.task_launch_overhead,
                Guarded(task, &JobRunner::StartGather));
}

void JobRunner::StartGather(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  EvalCut cut = FindEvalCut(*sr.stage.output_rdd, task.partition,
                            cluster_.blocks());
  task.cut_rdd = cut.rdd;
  task.cut_partition = cut.partition;
  task.gathered.clear();
  task.gather_srcs.clear();
  task.in_bytes = 0;
  task.gather_is_processed = false;
  task.fetch_failed_sid = -1;
  task.fetch_failed_maps.clear();
  task.pending_gathers = 1;  // released at the end of this function

  auto add_disk_read = [&](Bytes bytes) {
    ++task.pending_gathers;
    cluster_.disk().Read(task.node, bytes,
                         Guarded(task, &JobRunner::GatherArrived));
  };
  auto add_flow = [&](NodeIndex from, Bytes bytes, FlowKind kind) {
    ++task.pending_gathers;
    task.gather_srcs.push_back(from);
    metrics_.AccountFlow(topo_, from, task.node, bytes, kind);
    ShardTransfer transfer;
    transfer.src = from;
    transfer.dst = task.node;
    transfer.bytes = bytes;
    transfer.kind = kind;
    transfer.on_landed = Guarded(task, &JobRunner::GatherArrived);
    cluster_.transport().Transfer(std::move(transfer));
  };

  if (cut.is_cached_cut) {
    const BlockId id = BlockId::Cached(cut.rdd->id(), cut.partition);
    std::vector<NodeIndex> locs = cluster_.blocks().Locations(id);
    GS_CHECK(!locs.empty());
    NodeIndex from = locs.front();
    for (NodeIndex loc : locs) {
      if (loc == task.node) from = loc;
    }
    std::optional<Block> block = cluster_.blocks().Get(from, id);
    GS_CHECK(block.has_value());
    task.gathered.push_back(block->records);
    task.in_bytes = block->bytes;
    task.gather_is_processed = true;
    if (from == task.node) {
      add_disk_read(0);  // in-memory cache hit
    } else {
      add_flow(from, block->bytes, FlowKind::kOther);
    }
  } else if (cut.rdd->kind() == RddKind::kSource) {
    const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
    const SourceRdd::Partition& part = src.partition(cut.partition);
    NodeIndex loc = cluster_.SourceLocation(src, cut.partition);
    task.gathered.push_back(part.records);
    task.in_bytes = part.bytes;
    if (loc == task.node) {
      add_disk_read(part.bytes);
    } else {
      add_flow(loc, part.bytes, FlowKind::kOther);
    }
  } else if (cut.rdd->kind() == RddKind::kShuffled) {
    // Fetch-based shuffle read: one flow per remote source node, one disk
    // read covering all local shards (Sec. II-A).
    const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
    const ShuffleId sid = s.shuffle().id;
    const int shard = cut.partition;
    const int num_maps = cluster_.tracker().num_map_partitions(sid);
    // Fetch-failure detection (Spark semantics): lost map outputs — a
    // crashed node's shuffle files, or outputs another reducer already
    // invalidated — are discovered here, while building the fetch list.
    std::vector<int> missing;
    for (int m = 0; m < num_maps; ++m) {
      const MapOutputLocation& out = cluster_.tracker().Output(sid, m, shard);
      if (out.node == kNoNode ||
          !cluster_.blocks().Has(out.node, BlockId::Shuffle(sid, m, shard))) {
        missing.push_back(m);
      }
    }
    if (!missing.empty()) {
      // The attempt is doomed, but the fetch still runs for the blocks
      // that exist: concurrent fetches from healthy nodes have moved their
      // bytes by the time the dead server surfaces, and a restarted
      // reducer discards and re-fetches everything. Over the WAN that
      // waste is exactly the paper's Fig. 2 penalty for fetch-based
      // shuffle; under Push/Aggregate the same waste stays
      // datacenter-local. GatherArrived fails the task once the partial
      // gather lands.
      task.fetch_failed_sid = sid;
      task.fetch_failed_maps = missing;
    }
    const bool doomed = !missing.empty();
    std::unordered_map<NodeIndex, Bytes> remote_bytes;
    Bytes local_bytes = 0;
    for (int m = 0; m < num_maps; ++m) {
      const MapOutputLocation& out = cluster_.tracker().Output(sid, m, shard);
      if (out.node == kNoNode) continue;
      std::optional<Block> block = cluster_.blocks().Get(
          out.node, BlockId::Shuffle(sid, m, shard));
      if (!block.has_value()) continue;  // lost with its node
      if (!doomed) task.gathered.push_back(block->records);
      task.in_bytes += out.bytes;
      if (out.node == task.node) {
        local_bytes += out.bytes;
      } else {
        remote_bytes[out.node] += out.bytes;
      }
    }
    add_disk_read(local_bytes);
    // Deterministic flow start order.
    std::vector<std::pair<NodeIndex, Bytes>> sources(remote_bytes.begin(),
                                                     remote_bytes.end());
    std::sort(sources.begin(), sources.end());
    for (const auto& [from, bytes] : sources) {
      add_flow(from, bytes, FlowKind::kShuffleFetch);
    }
  } else {
    GS_CHECK_MSG(false, "unexpected gather boundary: "
                            << cut.rdd->name());
  }

  // The gathered records are complete right here — the flows and disk
  // reads above only simulate their cost — so the task's real compute can
  // start now and overlap, in wall-clock time, with the simulated gather
  // (and with every other task's compute). A doomed attempt (missing map
  // outputs) skips the submit; it fails at GatherArrived.
  if (task.fetch_failed_maps.empty()) SubmitCompute(task);

  GatherArrived(task);  // release the guard
}

TaskComputeSpec JobRunner::ComputeSpec(const StageRun& sr, int partition,
                                      bool combine) const {
  TaskComputeSpec spec;
  spec.output_rdd = sr.stage.output_rdd.get();
  spec.partition = partition;
  if (combine && sr.stage.pre_output_combine) {
    spec.combine = &sr.stage.pre_output_combine;
  }
  spec.output = sr.stage.output;
  // A Save result sends the driver an ack, not its records (OnComputeDone).
  spec.keep_records = sr.stage.output != StageOutputKind::kResult ||
                      action_ == ActionKind::kCollect;
  if (sr.stage.consumer_shuffle != nullptr) {
    spec.consumer_shuffle = &sr.stage.consumer_shuffle->shuffle();
  }
  return spec;
}

void JobRunner::SubmitCompute(TaskRun& task) {
  TaskComputeSpec spec = ComputeSpec(stage_run(task.stage), task.partition,
                                     !config_.disable_map_side_combine);
  spec.start.rdd = task.cut_rdd;
  spec.start.partition = task.cut_partition;
  spec.start.chunks = std::move(task.gathered);
  spec.start.already_processed = task.gather_is_processed;
  task.gathered.clear();
  task.compute = cluster_.compute_pool().Submit(
      [spec = std::move(spec)]() mutable {
        return ComputeTask(std::move(spec));
      });
}

void JobRunner::GatherArrived(TaskRun& task) {
  GS_CHECK(task.pending_gathers > 0);
  if (--task.pending_gathers > 0) return;
  if (!task.fetch_failed_maps.empty()) {
    const ShuffleId sid = task.fetch_failed_sid;
    const std::vector<int> missing = std::move(task.fetch_failed_maps);
    task.fetch_failed_maps.clear();
    task.fetch_failed_sid = -1;
    HandleFetchFailure(task, sid, missing);
    return;
  }
  OnGatherDone(task);
}

void JobRunner::OnGatherDone(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);

  // Join the compute job submitted at StartGather. This is a wall-clock
  // join only — in simulated time the compute "happens" over the cpu
  // interval scheduled below, whose length needs the output sizes the job
  // produced. Exceptions thrown by workload lambdas resurface here, on
  // the event loop.
  GS_CHECK(task.compute.valid());
  TaskComputeResult out = task.compute.get();
  SimTime cpu = config_.cost.CpuTime(task.in_bytes, out.out_bytes) +
                config_.cost.record_cpu *
                    static_cast<double>(out.in_records + out.out_records);
  cpu *= StragglerFactor();

  // Coded shuffle: the replicated map executions' compute.
  if (coded_) coded_->ChargeReplicas(sr.stage, cpu);

  // Store cache fills on this node once the compute finishes.
  TaskRun* t = &task;
  const int epoch = task.epoch;

  // Failure injection (Sec. V, Fig. 2): reduce tasks may fail partway
  // through their first attempt.
  const bool may_fail = IsReducerStage(sr) && task.attempt == 0 &&
                        config_.fault.reduce_failure_prob > 0;
  if (may_fail && rng_.Bernoulli(config_.fault.reduce_failure_prob)) {
    sim_.Schedule(cpu * kFailurePoint,
                  Guarded(task, &JobRunner::OnTaskFailed));
    return;
  }

  // Intra-task pipelining (Sec. IV-B): a transfer producer starts pushing
  // "as soon as there is a fraction of data available, without waiting
  // until the entire output dataset is ready". The push flow (sized for
  // the full output) departs once an early fraction of the compute is
  // done; the task itself completes at full compute time.
  if (sr.is_transfer_producer()) {
    StageRun* producer_sr = &sr;
    sim_.Schedule(cpu * kEarlyPushFraction,
                  [this, t, epoch, producer_sr,
                   records = std::move(out.records),
                   push_bytes = out.compressed_bytes]() mutable {
                    if (t->epoch != epoch) return;
                    NotifyReceiver(*producer_sr, *t, std::move(records),
                                   push_bytes);
                  });
    sim_.Schedule(cpu, [this, t, epoch, fills = std::move(out.cache_fills)] {
      if (t->epoch != epoch) return;
      CommitCacheFills(t->node, fills);
      FinishTask(*t);
    });
    return;
  }

  sim_.Schedule(cpu, [this, t, epoch, out = std::move(out)]() mutable {
    if (t->epoch != epoch) return;
    CommitCacheFills(t->node, out.cache_fills);
    OnComputeDone(*t, std::move(out));
  });
}

void JobRunner::OnTaskFailed(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  ++sr.metrics.task_failures;
  ++metrics_.task_failures;
  GS_LOG_INFO << "task " << sr.stage.id << "/" << task.partition
              << " failed on " << topo_.node(task.node).name << ", retrying";
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  // The retry keeps the failed attempt's gather sources until its own
  // gather starts: a crash of one in between still restarts it.
  std::vector<NodeIndex> gather_srcs = std::move(task.gather_srcs);
  ResetAttempt(task);
  task.gather_srcs = std::move(gather_srcs);
  SubmitTask(task);
}

void JobRunner::OnComputeDone(TaskRun& task, TaskComputeResult out) {
  StageRun& sr = stage_run(task.stage);
  TaskRun* t = &task;
  const int epoch = task.epoch;

  switch (sr.stage.output) {
    case StageOutputKind::kResult: {
      Bytes bytes;
      if (action_ == ActionKind::kCollect) {
        bytes = out.out_bytes;
      } else {
        // Save: output persists on the workers via HDFS (replication
        // factor 3: one local write plus two in-datacenter copies); the
        // driver gets an ack with the partition's record count. The
        // compute job already freed the records (ComputeSpec).
        out.records = {Record{std::to_string(task.partition),
                              static_cast<std::int64_t>(out.out_records)}};
        bytes = kSaveAckBytes;
        cluster_.disk().Write(task.node, 3 * out.out_bytes, [] {});
      }
      results_[task.partition] = std::move(out.records);
      cluster_.network().StartFlow(task.node, cluster_.driver_node(), bytes,
                                   FlowKind::kCollect,
                                   Guarded(task, &JobRunner::FinishTask));
      break;
    }
    case StageOutputKind::kShuffleWrite: {
      // The records were split per reduce shard — and each shard's
      // compressed size measured — inside the compute job; only the
      // simulated disk write and block registration happen here.
      const ShuffledRdd& consumer = *sr.stage.consumer_shuffle;
      const ShuffleInfo& info = consumer.shuffle();
      const int num_shards = info.partitioner->num_shards();
      const int num_maps = sr.stage.output_rdd->num_partitions();
      cluster_.tracker().RegisterShuffle(info.id, num_maps, num_shards);
      const int map_partition = task.partition;
      cluster_.disk().Write(
          task.node, out.shard_total_bytes,
          [this, t, epoch, map_partition, sid = info.id,
           shards = std::move(out.shards),
           shard_bytes = std::move(out.shard_bytes)]() mutable {
            if (t->epoch != epoch) return;
            std::vector<RecordsPtr> recs;
            recs.reserve(shards.size());
            for (int k = 0; k < static_cast<int>(shards.size()); ++k) {
              recs.push_back(MakeRecords(std::move(shards[k])));
              cluster_.blocks().PutWithSize(
                  t->node, BlockId::Shuffle(sid, map_partition, k),
                  recs.back(), shard_bytes[k]);
            }
            cluster_.tracker().RegisterMapOutput(sid, map_partition, t->node,
                                                 shard_bytes);
            if (coded_) {
              coded_->PutReplicaOutputs(sid, map_partition, t->node, recs,
                                        shard_bytes);
            }
            FinishTask(*t);
          });
      break;
    }
    case StageOutputKind::kTransferProduce: {
      // Hand the partition to the paired receiver; the push flow proceeds
      // after this task's slot is released (pipelining: the WAN transfer
      // overlaps later map tasks, Fig. 1b). No disk write on the producer
      // (Sec. IV-B, "unnecessary disk I/O is avoided").
      NotifyReceiver(sr, task, std::move(out.records), out.compressed_bytes);
      FinishTask(task);
      break;
    }
  }
}

void JobRunner::FinishTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  GS_CHECK(!task.done);
  task.done = true;
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  // Losing attempt of a speculated partition: its twin already finished.
  if (sr.partition_done[task.partition]) return;
  sr.partition_done[task.partition] = true;
  sr.completed_durations.push_back(sim_.Now() - task.assigned_at);
  if (MetricsRegistry* reg = cluster_.metrics_registry()) {
    // 0.1s .. ~6500s in x3 steps — spans quick maps to straggler reducers.
    reg->histogram("engine.task_duration_s", ExponentialBounds(0.1, 3, 11))
        .Observe(sim_.Now() - task.assigned_at);
  }
  if (TraceCollector* trace = cluster_.trace()) {
    TraceSpan span;
    span.kind = TraceSpan::Kind::kTask;
    span.category = sr.is_receiver()                              ? "receiver"
                    : IsReducerStage(sr)                             ? "reduce"
                    : sr.stage.output == StageOutputKind::kResult    ? "result"
                                                                     : "map";
    span.name = "stage" + std::to_string(sr.stage.id) + "/part" +
                std::to_string(task.partition) +
                (task.speculative ? "#spec" : task.attempt > 0 ? "#retry" : "");
    span.dc = topo_.dc_of(task.node);
    span.node = task.node;
    span.start = task.assigned_at;
    span.end = sim_.Now();
    trace->Add(std::move(span));
  }
  if (++sr.tasks_done == static_cast<int>(sr.tasks.size())) {
    OnStageDone(sr.stage.id);
  } else {
    MaybeSpeculate(sr);
  }
}

void JobRunner::MaybeSpeculate(StageRun& sr) {
  if (!config_.speculation.enabled || sr.done) return;
  // Transfer pairs (producer or receiver) keep their one-to-one pairing;
  // only plain map/reduce/result stages speculate, like Spark excludes
  // custom-committed outputs.
  if (sr.stage.starts_at_transfer ||
      sr.stage.output == StageOutputKind::kTransferProduce) {
    return;
  }
  const int total = static_cast<int>(sr.tasks.size());
  if (sr.tasks_done < kSpeculationQuantile * total) return;

  std::vector<double> durations = sr.completed_durations;
  std::sort(durations.begin(), durations.end());
  const double median = durations[durations.size() / 2];
  const double threshold =
      std::max(kSpeculationMultiplier * median, Millis(100));

  for (auto& task : sr.tasks) {
    if (task->done || !task->assigned || task->has_backup ||
        sr.partition_done[task->partition]) {
      continue;
    }
    if (sim_.Now() - task->assigned_at <= threshold) continue;
    task->has_backup = true;
    auto backup = std::make_unique<TaskRun>();
    backup->stage = sr.stage.id;
    backup->partition = task->partition;
    backup->speculative = true;
    backup->attempt = 1;  // backups skip first-attempt failure injection
    TaskRun* backup_ptr = backup.get();
    sr.backups.push_back(std::move(backup));
    GS_LOG_INFO << "speculating stage " << sr.stage.id << " partition "
                << task->partition;
    SubmitTask(*backup_ptr);
  }

  // Stragglers are also detected between completions: poll while any
  // un-backed-up task is still running.
  bool pending = false;
  for (const auto& task : sr.tasks) {
    if (!task->done && !task->has_backup &&
        !sr.partition_done[task->partition]) {
      pending = true;
      break;
    }
  }
  if (pending && !sr.spec_check_scheduled) {
    sr.spec_check_scheduled = true;
    StageRun* srp = &sr;
    sim_.Schedule(std::max(Millis(100), median / 2), [this, srp] {
      srp->spec_check_scheduled = false;
      MaybeSpeculate(*srp);
    });
  }
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void JobRunner::OnNodeCrashed(NodeIndex node) {
  if (job_done_) return;
  ++metrics_.node_crashes;
  for (auto& srp : stage_runs_) {
    StageRun& sr = *srp;
    if (sr.skipped || !sr.submitted) continue;
    auto handle = [&](TaskRun& task) {
      if (sr.is_receiver()) {
        // Completed receivers lose their written shuffle blocks with the
        // node; that is discovered lazily at fetch time like any map loss.
        if (task.done || task.node != node) return;
        ++sr.metrics.task_failures;
        ++metrics_.task_failures;
        RecoverReceiver(task);
        return;
      }
      if (task.done) {
        // Finished transfer producer whose push is still in flight from
        // this node: the buffered output died with the executor, so the
        // producer task itself must be re-run (DropUnlandedPush resets its
        // receiver). Finished *map* outputs stay registered until a fetch
        // failure (lazy detection).
        if (task.node == node && DropUnlandedPush(sr, task.partition, node)) {
          ResubmitCompletedTask(sr, task);
        }
        return;
      }
      if (!task.assigned) return;  // queued tasks simply avoid the node
      const bool hit =
          task.node == node ||
          std::find(task.gather_srcs.begin(), task.gather_srcs.end(), node) !=
              task.gather_srcs.end();
      if (!hit) return;
      ++sr.metrics.task_failures;
      ++metrics_.task_failures;
      RestartTask(task);
    };
    for (auto& t : sr.tasks) handle(*t);
    for (auto& t : sr.backups) handle(*t);
  }
}

void JobRunner::ResetAttempt(TaskRun& task) {
  ++task.epoch;
  ++task.attempt;
  task.assigned = false;
  task.node = kNoNode;
  task.gather_srcs.clear();
  task.gathered.clear();
  task.pending_gathers = 0;
  task.in_bytes = 0;
}

void JobRunner::RestartTask(TaskRun& task) {
  StageRun& sr = stage_run(task.stage);
  GS_CHECK(!task.done);
  GS_LOG_INFO << "restarting task " << sr.stage.id << "/" << task.partition
              << " (attempt " << task.attempt + 1 << ")";
  // A running transfer producer that already pushed: if the push has not
  // landed, it dies with this node — reset the receiver so the re-run's
  // push is accepted.
  DropUnlandedPush(sr, task.partition, task.node);
  // Frees the held slot when the task is restarted because a gather
  // *source* died; with the task's own node down only the tenant's busy
  // count balances (the slot died with the executor).
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  ResetAttempt(task);
  SubmitTask(task);
}

void JobRunner::ResubmitCompletedTask(StageRun& sr, TaskRun& task) {
  GS_CHECK(task.done);
  task.done = false;
  --sr.tasks_done;
  sr.partition_done[task.partition] = false;
  // The stage will re-fire OnStageDone when the re-run completes.
  sr.done = false;
  ResetAttempt(task);
  if (sr.is_receiver()) {
    // Re-run of a receiver: re-push the retained inbox to a fresh node in
    // the aggregator subset (recovery stays datacenter-local there).
    GS_CHECK(task.producer_done && task.inbox != nullptr);
    task.receiver_started = false;
    task.data_landed = false;
    task.node = placement_.PickNode(sr.stage.id, kNoNode);
    if (cluster_.scheduler().node_up(task.producer_node)) {
      TryDeliver(task);
    } else {
      RerunProducer(task);  // the push source died too
    }
    return;
  }
  SubmitTask(task);
}

void JobRunner::HandleFetchFailure(TaskRun& task, ShuffleId sid,
                                   const std::vector<int>& missing) {
  StageRun& sr = stage_run(task.stage);
  ++metrics_.fetch_failures;
  ++sr.metrics.task_failures;
  ++metrics_.task_failures;
  GS_LOG_INFO << "fetch failure: stage " << sr.stage.id << "/"
              << task.partition << " is missing " << missing.size()
              << " map output(s) of shuffle " << sid;
  // Fail this attempt: give the slot back and park until the parent stage
  // regenerates the lost outputs. The eventual retry re-fetches the whole
  // shard — over the WAN under fetch-based shuffle, within the aggregator
  // datacenter under Push/Aggregate (the paper's Fig. 2 asymmetry).
  cluster_.scheduler().ReleaseSlot(task.node, tenant_);
  ResetAttempt(task);

  // Invalidate only outputs that are still unusable *now*. This doomed
  // attempt observed the loss a gather-RTT ago; the parent map may have
  // re-run and re-registered in the meantime (another reducer's failure
  // already triggered recovery). Clobbering the fresh registration would
  // restart recovery and can live-lock the job: stale in-flight gathers
  // and map re-runs invalidating each other forever.
  const int shard = task.cut_partition;
  for (int m : missing) {
    const MapOutputLocation& cur = cluster_.tracker().Output(sid, m, shard);
    if (cur.node != kNoNode &&
        cluster_.blocks().Has(cur.node, BlockId::Shuffle(sid, m, shard))) {
      continue;  // regenerated since this attempt built its fetch list
    }
    cluster_.tracker().InvalidateMapOutput(sid, m);
  }

  const StageId parent_id = StageWritingShuffle(sid);
  StageRun& parent = stage_run(parent_id);
  GS_CHECK_MSG(!parent.skipped,
               "lost a shuffle written by a pruned (cache-covered) stage");
  // Resubmit exactly the missing map partitions — unless an earlier fetch
  // failure already did (their tasks are then marked not-done).
  int resubmitted = 0;
  for (int p = 0; p < parent.stage.num_tasks(); ++p) {
    if (cluster_.tracker().MapOutputRegistered(sid, p)) continue;
    TaskRun& mt = *parent.tasks[p];
    if (!mt.done) continue;
    ResubmitCompletedTask(parent, mt);
    ++resubmitted;
  }
  metrics_.map_resubmissions += resubmitted;
  if (parent.done) {
    // The parent already re-completed (recovery raced ahead of this
    // reducer); retry immediately.
    SubmitTask(task);
  } else {
    waiting_on_stage_[parent_id].push_back(&task);
  }
}

void JobRunner::RecoverReceiver(TaskRun& receiver) {
  StageRun& consumer = stage_run(receiver.stage);
  ++receiver.epoch;
  if (receiver.assigned) {
    // The receiver held a write-phase slot on the crashed node; balance
    // the tenant's busy accounting (the slot itself died with the node).
    cluster_.scheduler().ReleaseSlot(receiver.node, tenant_);
    receiver.assigned = false;
  } else if (receiver.data_landed) {
    // The write-phase request is still queued, pinned kNodeOnly to the
    // crashed node — it would sit in the scheduler's queue until that
    // node restarts, or forever after a permanent crash. The epoch bump
    // above already orphaned it; lift the pin so the next free slot
    // anywhere drains the entry (the stale grant is released on
    // delivery).
    cluster_.scheduler().UpdatePreferences(SchedulerTaskId(receiver), {},
                                           PlacementPolicy::kAnyAfterWait);
  }
  receiver.receiver_started = false;
  receiver.data_landed = false;
  if (!receiver.producer_done) {
    // Nothing pushed yet: just re-place; the producer's push will follow
    // the new destination.
    receiver.node = placement_.PickNode(consumer.stage.id, receiver.node);
    return;
  }
  if (!cluster_.scheduler().node_up(receiver.producer_node)) {
    // Double fault: the push source died too, so the retained output is
    // gone — recompute the producer, which will re-notify.
    receiver.node = placement_.PickNode(consumer.stage.id, kNoNode);
    RerunProducer(receiver);
    return;
  }
  if (receiver.push_retries >= kMaxPushRetries) {
    // Retries exhausted: degrade the push to the producer's own node — a
    // co-located no-op write, after which downstream reducers *fetch* that
    // partition (push falls back to fetch).
    receiver.push_fallback = true;
    ++metrics_.push_fallbacks;
    receiver.node = receiver.producer_node;
    GS_LOG_INFO << "push fallback: stage " << consumer.stage.id << "/"
                << receiver.partition << " degrades to fetch from "
                << topo_.node(receiver.node).name;
    TryDeliver(receiver);
    return;
  }
  ++receiver.push_retries;
  ++metrics_.push_retries;
  receiver.node = placement_.PickNode(consumer.stage.id, kNoNode);
  const SimTime backoff =
      kPushRetryBackoff *
      std::pow(kPushBackoffFactor, receiver.push_retries - 1);
  GS_LOG_INFO << "push retry " << receiver.push_retries << " for stage "
              << consumer.stage.id << "/" << receiver.partition << " to "
              << topo_.node(receiver.node).name << " after " << backoff
              << "s";
  sim_.Schedule(backoff, Guarded(receiver, &JobRunner::TryDeliver));
}

StageId JobRunner::StageWritingShuffle(ShuffleId sid) const {
  for (const auto& sr : stage_runs_) {
    if (sr->stage.output == StageOutputKind::kShuffleWrite &&
        sr->stage.consumer_shuffle->shuffle().id == sid) {
      return sr->stage.id;
    }
  }
  GS_CHECK_MSG(false, "no stage writes shuffle " << sid);
  return -1;
}

// ---------------------------------------------------------------------------
// Adaptive replanning (docs/ADAPTIVE.md)
// ---------------------------------------------------------------------------

void JobRunner::OnWanDegraded(DcIndex src, DcIndex dst) {
  if (job_done_ || !placement_.ReplansOnWanChange()) return;
  GS_LOG_INFO << "adaptive: WAN change on dc" << src << "->dc" << dst
              << ", replanning job " << job_id_;
  ReplanReceivers();
}

void JobRunner::ReplanReceivers() {
  for (auto& srp : stage_runs_) {
    StageRun& consumer = *srp;
    if (!consumer.is_receiver()) continue;
    if (!consumer.submitted || consumer.done || consumer.skipped) continue;
    const StageId id = consumer.stage.id;
    placement_.RateLimit(id, [this, id] {
      StageRun& sr = stage_run(id);
      if (job_done_ || sr.done || sr.skipped) return false;
      if (ReplanStage(sr)) ++metrics_.replans;
      return true;
    });
  }
}

bool JobRunner::ReplanStage(StageRun& consumer) {
  const std::optional<bool> retargeted =
      placement_.Retarget(stage_run(consumer.stage.transfer_producer).stage);
  if (!retargeted) return false;

  // Per-shard pass over receivers whose push has not started (placed but
  // nothing in flight; the producer's eventual push follows receiver.node
  // read at delivery time, so moving them costs nothing). Shards already
  // pushing or landed keep their placement — their WAN cost is paid.
  bool changed = *retargeted;
  for (auto& tp : consumer.tasks) {
    TaskRun& r = *tp;
    if (r.done || r.push_fallback || r.receiver_started ||
        r.node == kNoNode) {
      continue;
    }
    const ReceiverPlacement::Move move = placement_.ReplanShard(
        consumer.stage.id, *retargeted, r.partition, r.node, r.producer_node);
    r.push_fallback = move.fallback;
    changed = changed || move.fallback;
    if (move.node == r.node) continue;
    r.node = move.node;
    changed = true;
    // If the producer already finished (the shard was in a push-retry
    // backoff), deliver to the new node right away — the pending backoff
    // event no-ops on receiver_started. Otherwise the producer's push
    // will read the new node when it fires.
    TryDeliver(r);
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Transfer (push) path
// ---------------------------------------------------------------------------

void JobRunner::NotifyReceiver(StageRun& producer_sr, TaskRun& producer_task,
                               std::vector<Record> records,
                               Bytes push_bytes) {
  GS_CHECK(producer_sr.stage.transfer_consumer >= 0);
  StageRun& consumer = stage_run(producer_sr.stage.transfer_consumer);
  TaskRun& receiver = *consumer.tasks[producer_task.partition];
  // A restarted producer re-notifies; if the first attempt's push already
  // made it out (data landed, or still flowing from a live node), keep it.
  if (receiver.producer_done) return;
  // Pushed data is serialized and compressed like any shuffle stream;
  // `push_bytes` is the compute job's CompressedSize of `records`.
  receiver.inbox_bytes = push_bytes;
  receiver.inbox = MakeRecords(std::move(records));
  receiver.producer_done = true;
  receiver.producer_node = producer_task.node;
  SubmitReceiverCompute(receiver);
  TryDeliver(receiver);
}

void JobRunner::TryDeliver(TaskRun& receiver) {
  if (receiver.node == kNoNode || !receiver.producer_done ||
      receiver.receiver_started) {
    return;
  }
  receiver.receiver_started = true;
  if (receiver.producer_node == receiver.node) {
    // Co-located: the transferTo task is transparent (Sec. IV-C2).
    sim_.Schedule(kLocalHandoff,
                  Guarded(receiver, &JobRunner::ReceiverGotData));
  } else {
    metrics_.AccountFlow(topo_, receiver.producer_node, receiver.node,
                         receiver.inbox_bytes, FlowKind::kShufflePush);
    ShardTransfer transfer;
    transfer.src = receiver.producer_node;
    transfer.dst = receiver.node;
    transfer.bytes = receiver.inbox_bytes;
    transfer.kind = FlowKind::kShufflePush;
    transfer.on_landed = Guarded(receiver, &JobRunner::ReceiverGotData);
    cluster_.transport().Transfer(std::move(transfer));
  }
}

void JobRunner::ReceiverGotData(TaskRun& receiver) {
  // The pushed bytes are on receiver.node; acquire a slot there for the
  // receive/write work (receivers consume aggregator-datacenter compute,
  // Sec. IV-E).
  receiver.data_landed = true;
  SubmitTask(receiver);
}

void JobRunner::SubmitReceiverCompute(TaskRun& receiver) {
  GS_CHECK(receiver.inbox != nullptr);
  StageRun& sr = stage_run(receiver.stage);
  // Evaluate the receiver's narrow chain starting at the TransferredRdd.
  LeafRef leaf = ResolveLeaf(*sr.stage.output_rdd, receiver.partition);
  GS_CHECK(leaf.leaf->kind() == RddKind::kTransferred);

  // Receivers combine whenever the stage asks: disable_map_side_combine
  // only switches off the *map-side* pass (the Sec. IV-C3 knob); the
  // receiver's combine is the aggregation the transfer exists for.
  TaskComputeSpec spec =
      ComputeSpec(sr, receiver.partition, /*combine=*/true);
  spec.start.rdd = leaf.leaf;
  spec.start.partition = leaf.partition;
  // Shared, not consumed: the inbox is retained so a crash of this node
  // can be recovered by re-pushing instead of recomputing the producer.
  spec.start.chunks = {receiver.inbox};
  receiver.compute =
      cluster_.compute_pool().Submit([spec = std::move(spec)]() mutable {
        return ComputeTask(std::move(spec));
      });
}

void JobRunner::ExecuteReceiver(TaskRun& receiver) {
  // The compute was submitted when the inbox was set and has overlapped
  // the push; join it now that the write phase needs the output size. A
  // recovery re-run finds the future consumed and recomputes from the
  // retained inbox.
  if (!receiver.compute.valid()) SubmitReceiverCompute(receiver);
  TaskComputeResult out = receiver.compute.get();
  receiver.in_bytes = receiver.inbox_bytes;
  // Receiving is I/O-bound; charge a nominal CPU cost for deserialization.
  const SimTime cpu = config_.cost.CpuTime(0, out.out_bytes / 4);

  TaskRun* r = &receiver;
  const int epoch = receiver.epoch;
  sim_.Schedule(cpu, [this, r, epoch, out = std::move(out)]() mutable {
    if (r->epoch != epoch) return;
    CommitCacheFills(r->node, out.cache_fills);
    OnComputeDone(*r, std::move(out));
  });
}

void JobRunner::DropInbox(TaskRun& receiver) {
  receiver.producer_done = false;
  receiver.inbox.reset();
  receiver.inbox_bytes = 0;
  receiver.compute = {};
}

bool JobRunner::DropUnlandedPush(StageRun& producer_sr, int partition,
                                 NodeIndex node) {
  if (!producer_sr.is_transfer_producer()) return false;
  TaskRun& recv =
      *stage_run(producer_sr.stage.transfer_consumer).tasks[partition];
  if (recv.done || !recv.producer_done || recv.data_landed ||
      recv.producer_node != node) {
    return false;
  }
  ++recv.epoch;
  recv.receiver_started = false;
  DropInbox(recv);
  return true;
}

void JobRunner::RerunProducer(TaskRun& receiver) {
  DropInbox(receiver);
  StageRun& producer_sr =
      stage_run(stage_run(receiver.stage).stage.transfer_producer);
  TaskRun& pt = *producer_sr.tasks[receiver.partition];
  if (pt.done) {
    ResubmitCompletedTask(producer_sr, pt);
  } else if (pt.assigned) {
    RestartTask(pt);
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void JobRunner::CommitCacheFills(
    NodeIndex node, const std::vector<EvalResult::CacheFill>& fills) {
  for (const EvalResult::CacheFill& fill : fills) {
    cluster_.blocks().Put(node, BlockId::Cached(fill.rdd, fill.partition),
                          fill.records);
  }
}

double JobRunner::StragglerFactor() {
  const CostModel& cost = config_.cost;
  double factor = std::exp(rng_.Normal(0.0, cost.straggler_sigma));
  if (cost.straggler_prob > 0 && rng_.Bernoulli(cost.straggler_prob)) {
    factor *= cost.straggler_factor;
  }
  return factor;
}

bool JobRunner::IsReducerStage(const StageRun& sr) const {
  for (const Rdd* leaf : CollectLeaves(*sr.stage.output_rdd)) {
    if (leaf->kind() == RddKind::kShuffled) return true;
  }
  return false;
}

TaskId JobRunner::SchedulerTaskId(const TaskRun& task) const {
  // Stage and partition each get a fixed decimal range below the job id;
  // a non-negative int job id keeps the product inside TaskId.
  constexpr TaskId kStageRange = 10000;
  constexpr TaskId kPartitionRange = 100000;
  GS_CHECK(job_id_ >= 0);
  GS_CHECK(task.stage >= 0 && task.stage < kStageRange);
  GS_CHECK(task.partition >= 0 && task.partition < kPartitionRange);
  return (job_id_ * kStageRange + task.stage) * kPartitionRange +
         task.partition;
}

}  // namespace gs

// Pure per-task compute, packaged for execution off the event loop.
//
// ComputeTask() bundles everything a task does to real records — narrow
// chain evaluation, map-side combine, shuffle-write partitioning, and
// serialized/compressed size accounting — into one side-effect-free
// function of its inputs. The simulator's event loop submits it to the
// compute ThreadPool when a task's gather starts (a receiver's, when its
// inbox is pushed) and joins the future at the simulated gather-done event
// (a receiver's, when its write phase starts), so wall-clock compute of
// concurrent tasks overlaps while simulated time, event order, and every
// derived number stay identical to inline execution (see docs/PERF.md).
//
// Purity contract: a compute job reads only its spec (shared immutable
// record chunks, plus const pointers into the immutable Rdd graph / stage
// structures) and writes only its result. It never touches the simulator,
// the RNG, block storage, or metrics — those stay event-loop-only.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "dag/stage.h"
#include "data/combiner.h"
#include "data/record.h"
#include "exec/evaluator.h"
#include "rdd/rdd.h"

namespace gs {

// Inputs of one task's compute, captured at submit time. All pointers
// reference structures that outlive the job (the Rdd graph and StageRun
// fields); the record chunks are shared and never written.
struct TaskComputeSpec {
  const Rdd* output_rdd = nullptr;
  int partition = -1;
  EvalStart start;  // boundary records, as shared chunks
  // Effective map-side combine: null when the stage has none or the run
  // disables it. (Receiver stages always combine when the stage asks —
  // RunConfig::disable_map_side_combine does not apply to them.)
  const Combiner* combine = nullptr;
  StageOutputKind output = StageOutputKind::kResult;
  // Shuffle this stage writes into (kShuffleWrite only).
  const ShuffleInfo* consumer_shuffle = nullptr;
  // Whether the result carries the computed records (kResult /
  // kTransferProduce). False when the caller needs only their count and
  // size, e.g. a Save result whose driver gets an ack: the records are
  // then freed here, inside the compute job, not on the event loop.
  bool keep_records = true;
};

// Outputs: computed records plus every size the event loop needs to cost
// the task, so no record walk remains on the simulation thread.
struct TaskComputeResult {
  // Computed partition (kResult / kTransferProduce). Empty for
  // kShuffleWrite, whose records live in `shards`, and when the spec does
  // not keep them.
  std::vector<Record> records;
  std::vector<EvalResult::CacheFill> cache_fills;

  std::size_t in_records = 0;   // boundary records, summed over chunks
  std::size_t out_records = 0;  // records after the (optional) combine
  Bytes out_bytes = 0;          // serialized size of the computed output

  // kTransferProduce: push size (serialized + compressed).
  Bytes compressed_bytes = 0;

  // kShuffleWrite: records split per reduce shard, each shard's
  // compressed size, and their sum (the map task's disk write).
  std::vector<std::vector<Record>> shards;
  std::vector<Bytes> shard_bytes;
  Bytes shard_total_bytes = 0;
};

// Runs the task's compute synchronously. Pure: thread-safe for any number
// of concurrent calls over a shared immutable Rdd graph.
TaskComputeResult ComputeTask(TaskComputeSpec spec);

}  // namespace gs

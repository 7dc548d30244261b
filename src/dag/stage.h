// Stages: shuffle- and transfer-separated pieces of a job DAG.
//
// A stage is a maximal subgraph of the lineage DAG connected by narrow
// dependencies. Its tasks each evaluate one partition of the stage's output
// RDD. Stage boundaries are:
//   * shuffle dependencies (a ShuffledRdd starts a new stage; the parent
//     stage writes shuffle files) — classic Spark behaviour; and
//   * transfer dependencies (a TransferredRdd starts a *receiver* stage;
//     the parent stage pushes each partition to its paired receiver task) —
//     the paper's addition. Receiver stages are submitted concurrently with
//     their producer stage so pushes pipeline with the preceding map
//     (Sec. IV-B), unlike shuffle stages which wait for a barrier.
#pragma once

#include <vector>

#include "common/ids.h"
#include "rdd/rdd.h"

namespace gs {

// What the tasks of a stage do with their computed partition.
enum class StageOutputKind {
  kResult,            // deliver to the driver (collect/save)
  kShuffleWrite,      // partition into shards, write, register map output
  kTransferProduce,   // hand the partition to the paired receiver task
};

struct Stage {
  StageId id = -1;
  // The last RDD evaluated by this stage's tasks (top of the narrow chain).
  RddPtr output_rdd;
  StageOutputKind output = StageOutputKind::kResult;

  // When output == kShuffleWrite: the consuming shuffle.
  const ShuffledRdd* consumer_shuffle = nullptr;
  // When output == kTransferProduce: the consuming transferTo.
  const TransferredRdd* consumer_transfer = nullptr;

  // Map-side combine to apply to the computed partition before the output
  // step: the consuming shuffle's ShuffleInfo::combine. For a plain
  // shuffle-map stage that is the shuffle this stage writes; for a
  // transfer-producer stage it is the shuffle behind the transferTo,
  // applied *before* the push so combined data crosses the WAN (Sec.
  // IV-C3). Empty when the shuffle does not combine, and on a receiver
  // stage, which never recombines.
  Combiner pre_output_combine;

  // Stages that must fully complete before this stage is submitted
  // (shuffle dependencies of any leaf in this stage).
  std::vector<StageId> barrier_parents;
  // Producer stage feeding this stage's TransferredRdd boundary, if any.
  // Submitted together with this stage; tasks pair one-to-one.
  StageId transfer_producer = -1;
  // Receiver stage consuming this stage's transfer output, if any.
  StageId transfer_consumer = -1;

  bool starts_at_transfer = false;  // boundary leaf is a TransferredRdd

  int num_tasks() const { return output_rdd->num_partitions(); }
};

}  // namespace gs

// Synchronous evaluation of a stage's narrow chain for one partition.
//
// Given the records at the stage's boundary leaf (input block, gathered
// shuffle shard, or received transfer), Evaluate() walks the narrow chain
// up to the stage's output RDD and returns the computed records, noting any
// cache interactions along the way. The boundary records arrive as shared
// immutable chunks; Evaluate copies them only where it needs ownership.
#pragma once

#include <optional>
#include <vector>

#include "dag/dag_scheduler.h"
#include "rdd/rdd.h"
#include "storage/block_manager.h"

namespace gs {

struct EvalResult {
  std::vector<Record> records;
  // Partitions of cached RDDs computed along the way that should be stored
  // on the executing node (rdd id + partition + payload).
  struct CacheFill {
    RddId rdd = -1;
    int partition = -1;
    RecordsPtr records;
  };
  std::vector<CacheFill> cache_fills;
};

// The point where evaluation starts: either the stage's boundary leaf or a
// cached cut above it (if `cache_cut` names an RDD whose partition was found
// in the block manager, evaluation starts there with its cached records).
struct EvalStart {
  const Rdd* rdd = nullptr;  // leaf or cached RDD where records originate
  int partition = -1;
  // The boundary records: shared immutable chunks in gather order (map
  // order for a shuffle shard), logically concatenated. Whoever gathers
  // them only moves pointers; the chunks stay readable even if their
  // blocks are dropped meanwhile.
  std::vector<RecordsPtr> chunks;
  // True when records came from a cache hit: they are the rdd's final
  // output, so no shard processing or re-caching applies at this node.
  bool already_processed = false;
};

// Evaluates partition `partition` of `output`, starting from `start`.
// For a ShuffledRdd leaf, `start.chunks` are the raw gathered shard
// records; ProcessShard (combine/group/sort) is applied to them here, a
// combine reading them in place. A single chunk under a MapPartitionsRdd
// is read in place; an output that is the boundary itself gets a
// concatenated copy.
EvalResult Evaluate(const Rdd& output, int partition, EvalStart start);

// Finds the evaluation cut for a task: walks from `output` down towards the
// boundary leaf; if a cached RDD with a block available on *any* node is
// crossed, returns it (highest such cut). Otherwise returns the leaf.
// The caller turns this into a gather plan (local/remote read or shuffle
// fetch or transfer receive).
struct EvalCut {
  const Rdd* rdd = nullptr;  // cached RDD or boundary leaf
  int partition = -1;
  bool is_cached_cut = false;
};
EvalCut FindEvalCut(const Rdd& output, int partition,
                    const BlockManager& blocks);

}  // namespace gs

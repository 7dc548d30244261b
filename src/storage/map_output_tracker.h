// MapOutputTracker: where each shard of each shuffle lives, and how big.
//
// After a map (or receiver) task writes shuffle output, it registers the
// per-shard sizes and its node here. Reducers consult the tracker to build
// their fetch lists; the DAG scheduler consults it to compute the
// shuffle-input distribution per datacenter (the s_1 >= s_2 >= ... of
// Sec. III-B) that drives reducer placement and aggregator selection.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "netsim/topology.h"

namespace gs {

struct MapOutputLocation {
  NodeIndex node = kNoNode;
  Bytes bytes = 0;  // size of one shard of one map partition
};

class MapOutputTracker {
 public:
  // Declares a shuffle with the given dimensions. Idempotent.
  void RegisterShuffle(ShuffleId shuffle, int num_map_partitions,
                       int num_shards);

  // Records that map partition `map_partition` of `shuffle` stored its
  // shards on `node`, with `shard_bytes[k]` bytes for shard k. Registering
  // again overwrites the location (the output moved, e.g. pushed by
  // transferTo).
  void RegisterMapOutput(ShuffleId shuffle, int map_partition, NodeIndex node,
                         const std::vector<Bytes>& shard_bytes);

  // Moves a single shard of one map partition to `node` (bytes unchanged):
  // the coded-shuffle exchange lands each segment next to its consumer and
  // re-points the tracker so reducer gathers read it locally
  // (docs/CODED.md). The map partition must be registered.
  void RelocateShard(ShuffleId shuffle, int map_partition, int shard,
                     NodeIndex node);

  // Node that executed the map partition (recorded at RegisterMapOutput,
  // surviving RelocateShard); kNoNode while unregistered/invalidated.
  // Simcheck derives the pre-exchange shard distribution from it when
  // verifying the coding-aware Eq. 2 bound.
  NodeIndex primary_node(ShuffleId shuffle, int map_partition) const;

  // Forgets one map partition's output (its blocks were lost: node crash or
  // shuffle-file corruption, discovered via a reducer's fetch failure). The
  // shuffle drops back to incomplete so the parent stage resubmits exactly
  // the missing partitions, and the tracker epoch advances so stale task
  // attempts can detect they raced with a recovery. No-op (and no epoch
  // bump) if the partition was not registered.
  void InvalidateMapOutput(ShuffleId shuffle, int map_partition);

  // True if the given map partition's output is currently registered.
  bool MapOutputRegistered(ShuffleId shuffle, int map_partition) const;

  // Bumped by every successful InvalidateMapOutput.
  int epoch() const { return epoch_; }

  bool HasShuffle(ShuffleId shuffle) const;
  int num_map_partitions(ShuffleId shuffle) const;
  int num_shards(ShuffleId shuffle) const;

  // Location/size of one shard of one map partition.
  const MapOutputLocation& Output(ShuffleId shuffle, int map_partition,
                                  int shard) const;

  // Total shuffle input bytes S.
  Bytes TotalBytes(ShuffleId shuffle) const;

  // Bytes of shuffle input stored per node.
  std::vector<Bytes> BytesPerNode(ShuffleId shuffle, int num_nodes) const;

  // Bytes of shuffle input stored per datacenter (the s_j of Sec. III-B).
  std::vector<Bytes> BytesPerDc(ShuffleId shuffle, const Topology& topo) const;

  // Nodes holding at least `fraction` of shard k's input — Spark's reducer
  // locality preference.
  std::vector<NodeIndex> PreferredShardLocations(ShuffleId shuffle, int shard,
                                                 double fraction) const;

 private:
  struct ShuffleStatus {
    int num_map_partitions = 0;
    int num_shards = 0;
    // outputs[map_partition * num_shards + shard]
    std::vector<MapOutputLocation> outputs;
    std::vector<bool> map_done;
    std::vector<NodeIndex> primary;  // per map partition; see primary_node
  };

  const ShuffleStatus& StatusOf(ShuffleId shuffle) const;

  std::unordered_map<ShuffleId, ShuffleStatus> shuffles_;
  int epoch_ = 0;
};

}  // namespace gs

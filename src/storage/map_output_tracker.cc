#include "storage/map_output_tracker.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace gs {

void MapOutputTracker::RegisterShuffle(ShuffleId shuffle,
                                       int num_map_partitions,
                                       int num_shards) {
  GS_CHECK(num_map_partitions > 0);
  GS_CHECK(num_shards > 0);
  auto it = shuffles_.find(shuffle);
  if (it != shuffles_.end()) {
    GS_CHECK(it->second.num_map_partitions == num_map_partitions);
    GS_CHECK(it->second.num_shards == num_shards);
    return;
  }
  ShuffleStatus status;
  status.num_map_partitions = num_map_partitions;
  status.num_shards = num_shards;
  status.outputs.resize(static_cast<std::size_t>(num_map_partitions) *
                        num_shards);
  status.map_done.resize(num_map_partitions, false);
  status.primary.resize(num_map_partitions, kNoNode);
  shuffles_.emplace(shuffle, std::move(status));
}

void MapOutputTracker::RegisterMapOutput(
    ShuffleId shuffle, int map_partition, NodeIndex node,
    const std::vector<Bytes>& shard_bytes) {
  auto it = shuffles_.find(shuffle);
  GS_CHECK_MSG(it != shuffles_.end(), "unknown shuffle " << shuffle);
  ShuffleStatus& s = it->second;
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  GS_CHECK(static_cast<int>(shard_bytes.size()) == s.num_shards);
  GS_CHECK(node != kNoNode);
  for (int k = 0; k < s.num_shards; ++k) {
    auto& out = s.outputs[static_cast<std::size_t>(map_partition) *
                              s.num_shards + k];
    out.node = node;
    out.bytes = shard_bytes[k];
  }
  s.primary[map_partition] = node;
  s.map_done[map_partition] = true;
}

void MapOutputTracker::RelocateShard(ShuffleId shuffle, int map_partition,
                                     int shard, NodeIndex node) {
  auto it = shuffles_.find(shuffle);
  GS_CHECK_MSG(it != shuffles_.end(), "unknown shuffle " << shuffle);
  ShuffleStatus& s = it->second;
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  GS_CHECK(shard >= 0 && shard < s.num_shards);
  GS_CHECK(node != kNoNode);
  GS_CHECK_MSG(s.map_done[map_partition],
               "relocating a shard of unregistered map partition "
                   << map_partition);
  s.outputs[static_cast<std::size_t>(map_partition) * s.num_shards + shard]
      .node = node;
}

NodeIndex MapOutputTracker::primary_node(ShuffleId shuffle,
                                         int map_partition) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  return s.primary[map_partition];
}

void MapOutputTracker::InvalidateMapOutput(ShuffleId shuffle,
                                           int map_partition) {
  auto it = shuffles_.find(shuffle);
  GS_CHECK_MSG(it != shuffles_.end(), "unknown shuffle " << shuffle);
  ShuffleStatus& s = it->second;
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  if (!s.map_done[map_partition]) return;  // already invalidated
  for (int k = 0; k < s.num_shards; ++k) {
    auto& out = s.outputs[static_cast<std::size_t>(map_partition) *
                              s.num_shards + k];
    out.node = kNoNode;
    out.bytes = 0;
  }
  s.map_done[map_partition] = false;
  s.primary[map_partition] = kNoNode;
  ++epoch_;
}

bool MapOutputTracker::MapOutputRegistered(ShuffleId shuffle,
                                           int map_partition) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  return s.map_done[map_partition];
}

bool MapOutputTracker::HasShuffle(ShuffleId shuffle) const {
  return shuffles_.count(shuffle) > 0;
}

const MapOutputTracker::ShuffleStatus& MapOutputTracker::StatusOf(
    ShuffleId shuffle) const {
  auto it = shuffles_.find(shuffle);
  GS_CHECK_MSG(it != shuffles_.end(), "unknown shuffle " << shuffle);
  return it->second;
}

int MapOutputTracker::num_map_partitions(ShuffleId shuffle) const {
  return StatusOf(shuffle).num_map_partitions;
}

int MapOutputTracker::num_shards(ShuffleId shuffle) const {
  return StatusOf(shuffle).num_shards;
}

const MapOutputLocation& MapOutputTracker::Output(ShuffleId shuffle,
                                                  int map_partition,
                                                  int shard) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  GS_CHECK(map_partition >= 0 && map_partition < s.num_map_partitions);
  GS_CHECK(shard >= 0 && shard < s.num_shards);
  return s.outputs[static_cast<std::size_t>(map_partition) * s.num_shards +
                   shard];
}

Bytes MapOutputTracker::TotalBytes(ShuffleId shuffle) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  Bytes total = 0;
  for (const auto& out : s.outputs) total += out.bytes;
  return total;
}

std::vector<Bytes> MapOutputTracker::BytesPerNode(ShuffleId shuffle,
                                                  int num_nodes) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  std::vector<Bytes> per_node(num_nodes, 0);
  for (const auto& out : s.outputs) {
    if (out.node == kNoNode) continue;
    GS_CHECK(out.node < num_nodes);
    per_node[out.node] += out.bytes;
  }
  return per_node;
}

std::vector<Bytes> MapOutputTracker::BytesPerDc(ShuffleId shuffle,
                                                const Topology& topo) const {
  std::vector<Bytes> per_node = BytesPerNode(shuffle, topo.num_nodes());
  std::vector<Bytes> per_dc(topo.num_datacenters(), 0);
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    per_dc[topo.dc_of(n)] += per_node[n];
  }
  return per_dc;
}

std::vector<NodeIndex> MapOutputTracker::PreferredShardLocations(
    ShuffleId shuffle, int shard, double fraction) const {
  const ShuffleStatus& s = StatusOf(shuffle);
  std::unordered_map<NodeIndex, Bytes> per_node;
  Bytes total = 0;
  for (int m = 0; m < s.num_map_partitions; ++m) {
    const auto& out = Output(shuffle, m, shard);
    if (out.node == kNoNode) continue;
    per_node[out.node] += out.bytes;
    total += out.bytes;
  }
  std::vector<NodeIndex> prefs;
  if (total == 0) return prefs;
  for (const auto& [node, bytes] : per_node) {
    if (static_cast<double>(bytes) >= fraction * static_cast<double>(total)) {
      prefs.push_back(node);
    }
  }
  std::sort(prefs.begin(), prefs.end());
  return prefs;
}

}  // namespace gs

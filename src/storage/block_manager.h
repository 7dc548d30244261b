// Cluster-wide block registry.
//
// Tracks which node stores each block and the block payloads themselves.
// Task placement reads locations from here (host-level data locality);
// task execution reads/writes payloads.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/metrics_registry.h"
#include "storage/block.h"

namespace gs {

class BlockManager {
 public:
  // `metrics` (optional) receives put/drop counters and the occupancy
  // gauges (block and byte totals across all nodes, with high-watermarks);
  // must outlive the manager.
  explicit BlockManager(int num_nodes, MetricsRegistry* metrics = nullptr);

  // Stores a block on a node; replaces any previous copy on that node.
  void Put(NodeIndex node, const BlockId& id, RecordsPtr records);

  // Stores a block with an explicitly declared serialized size (used when
  // the logical size differs from SerializedSize of the payload, e.g.
  // generated inputs that model a larger on-disk file).
  void PutWithSize(NodeIndex node, const BlockId& id, RecordsPtr records,
                   Bytes bytes);

  bool Has(NodeIndex node, const BlockId& id) const;

  // Fetches a block stored on the given node. Returns nullopt if absent.
  std::optional<Block> Get(NodeIndex node, const BlockId& id) const;

  // All nodes currently holding the block.
  std::vector<NodeIndex> Locations(const BlockId& id) const;

  void Remove(NodeIndex node, const BlockId& id);

  // Drops every block stored on a node (node crash: its disks are gone).
  void DropNode(NodeIndex node);

  // Drops the node's shuffle blocks only (disk corruption loses shuffle
  // files but keeps cached partitions).
  void DropShuffleOnNode(NodeIndex node);

  int num_nodes() const { return static_cast<int>(stores_.size()); }

 private:
  // Gauge bookkeeping for one erased copy.
  void NoteErase(const Block& block);

  using Store = std::unordered_map<BlockId, Block, BlockIdHash>;
  std::vector<Store> stores_;  // per node
  std::unordered_map<BlockId, std::vector<NodeIndex>, BlockIdHash>
      locations_;

  // Metric handles (nullptr without a registry); event-loop-only updates.
  Counter* m_puts_ = nullptr;
  Counter* m_drops_ = nullptr;
  Gauge* m_blocks_ = nullptr;
  Gauge* m_bytes_ = nullptr;
};

}  // namespace gs

#include "storage/block_manager.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace gs {

std::string BlockId::ToString() const {
  const char* names[] = {"shuffle", "cached"};
  std::ostringstream os;
  os << names[static_cast<int>(kind)] << "(" << a << "," << b << "," << c
     << ")";
  return os.str();
}

RecordsPtr MakeRecords(std::vector<Record> records) {
  return std::make_shared<const std::vector<Record>>(std::move(records));
}

BlockManager::BlockManager(int num_nodes, MetricsRegistry* metrics)
    : stores_(num_nodes) {
  GS_CHECK(num_nodes > 0);
  if (metrics != nullptr) {
    m_puts_ = &metrics->counter("storage.puts");
    m_drops_ = &metrics->counter("storage.drops");
    m_blocks_ = &metrics->gauge("storage.blocks");
    m_bytes_ = &metrics->gauge("storage.bytes");
  }
}

void BlockManager::Put(NodeIndex node, const BlockId& id, RecordsPtr records) {
  GS_CHECK(records != nullptr);
  Bytes bytes = SerializedSize(*records);
  PutWithSize(node, id, std::move(records), bytes);
}

void BlockManager::PutWithSize(NodeIndex node, const BlockId& id,
                               RecordsPtr records, Bytes bytes) {
  GS_CHECK(node >= 0 && node < num_nodes());
  GS_CHECK(records != nullptr);
  GS_CHECK(bytes >= 0);
  Store& store = stores_[node];
  auto it = store.find(id);
  if (it != store.end()) {
    // Replacing a copy: only the size delta moves the occupancy gauge.
    if (m_bytes_ != nullptr) m_bytes_->Add(bytes - it->second.bytes);
    it->second = Block{std::move(records), bytes};
  } else {
    store.emplace(id, Block{std::move(records), bytes});
    locations_[id].push_back(node);
    if (m_bytes_ != nullptr) {
      m_bytes_->Add(bytes);
      m_blocks_->Add(1);
    }
  }
  if (m_puts_ != nullptr) m_puts_->Add(1);
}

bool BlockManager::Has(NodeIndex node, const BlockId& id) const {
  GS_CHECK(node >= 0 && node < num_nodes());
  return stores_[node].count(id) > 0;
}

std::optional<Block> BlockManager::Get(NodeIndex node,
                                       const BlockId& id) const {
  GS_CHECK(node >= 0 && node < num_nodes());
  auto it = stores_[node].find(id);
  if (it == stores_[node].end()) return std::nullopt;
  return it->second;
}

std::vector<NodeIndex> BlockManager::Locations(const BlockId& id) const {
  auto it = locations_.find(id);
  if (it == locations_.end()) return {};
  return it->second;
}

void BlockManager::NoteErase(const Block& block) {
  if (m_blocks_ == nullptr) return;
  m_blocks_->Add(-1);
  m_bytes_->Add(-block.bytes);
  m_drops_->Add(1);
}

void BlockManager::Remove(NodeIndex node, const BlockId& id) {
  GS_CHECK(node >= 0 && node < num_nodes());
  auto sit = stores_[node].find(id);
  if (sit != stores_[node].end()) {
    NoteErase(sit->second);
    stores_[node].erase(sit);
  }
  auto it = locations_.find(id);
  if (it != locations_.end()) {
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), node), v.end());
    if (v.empty()) locations_.erase(it);
  }
}

void BlockManager::DropNode(NodeIndex node) {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::vector<BlockId> ids;
  ids.reserve(stores_[node].size());
  for (const auto& [id, block] : stores_[node]) ids.push_back(id);
  for (const BlockId& id : ids) Remove(node, id);
}

void BlockManager::DropShuffleOnNode(NodeIndex node) {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::vector<BlockId> ids;
  for (const auto& [id, block] : stores_[node]) {
    if (id.kind == BlockId::Kind::kShuffle) ids.push_back(id);
  }
  for (const BlockId& id : ids) Remove(node, id);
}

}  // namespace gs

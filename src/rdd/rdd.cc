#include "rdd/rdd.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace gs {

Rdd::Rdd(RddId id, RddKind kind, int num_partitions, std::string name)
    : id_(id), kind_(kind), num_partitions_(num_partitions),
      name_(std::move(name)) {
  GS_CHECK(num_partitions > 0);
}

void Rdd::AddParent(RddPtr parent) {
  GS_CHECK(parent != nullptr);
  parents_.push_back(std::move(parent));
}

SourceRdd::SourceRdd(RddId id, std::string name,
                     std::vector<Partition> partitions)
    : Rdd(id, RddKind::kSource, static_cast<int>(partitions.size()),
          std::move(name)),
      partitions_(std::move(partitions)) {
  for (const auto& p : partitions_) {
    GS_CHECK(p.records != nullptr);
    GS_CHECK(p.node != kNoNode);
    GS_CHECK(p.bytes >= 0);
  }
}

Bytes SourceRdd::total_bytes() const {
  Bytes total = 0;
  for (const auto& p : partitions_) total += p.bytes;
  return total;
}

MapPartitionsRdd::MapPartitionsRdd(RddId id, std::string name, RddPtr parent,
                                   Fn fn)
    : Rdd(id, RddKind::kMapPartitions, parent->num_partitions(),
          std::move(name)),
      fn_(std::move(fn)) {
  GS_CHECK(fn_ != nullptr);
  AddParent(std::move(parent));
}

int UnionRdd::TotalPartitions(const std::vector<RddPtr>& rdds) {
  GS_CHECK(!rdds.empty());
  int total = 0;
  for (const auto& r : rdds) total += r->num_partitions();
  return total;
}

UnionRdd::UnionRdd(RddId id, std::string name, std::vector<RddPtr> rdds)
    : Rdd(id, RddKind::kUnion, TotalPartitions(rdds), std::move(name)) {
  for (auto& r : rdds) AddParent(std::move(r));
}

std::pair<int, int> UnionRdd::Resolve(int partition) const {
  GS_CHECK(partition >= 0 && partition < num_partitions());
  int offset = partition;
  for (std::size_t i = 0; i < parents().size(); ++i) {
    int n = parents()[i]->num_partitions();
    if (offset < n) return {static_cast<int>(i), offset};
    offset -= n;
  }
  GS_CHECK_MSG(false, "unreachable");
  return {-1, -1};
}

ShuffledRdd::ShuffledRdd(RddId id, std::string name, RddPtr parent,
                         ShuffleInfo info)
    : Rdd(id, RddKind::kShuffled,
          info.partitioner ? info.partitioner->num_shards() : 1,
          std::move(name)),
      info_(std::move(info)) {
  GS_CHECK(info_.partitioner != nullptr);
  GS_CHECK(info_.id >= 0);
  GS_CHECK_MSG(!(info_.group_values && info_.combine),
               "groupByKey and reduceByKey are mutually exclusive");
  AddParent(std::move(parent));
}

std::vector<Record> ShuffledRdd::ProcessShard(
    const std::vector<RecordsPtr>& chunks) const {
  std::vector<Record> records = info_.combine
                                    ? CombineByKey(chunks, info_.combine)
                                    : ConcatRecords(chunks);
  if (info_.group_values) {
    // Gather string values per key, in arrival order. Keys are hashed once
    // into a flat index — no std::hash<std::string>, no per-key nodes.
    std::vector<Record> grouped;
    FlatKeyIndex index(records.size());
    for (Record& r : records) {
      const std::size_t slot = index.FindOrInsert(
          Fnv1a64(r.key), grouped.size(),
          [&](std::size_t i) { return grouped[i].key == r.key; });
      if (slot == grouped.size()) {
        grouped.push_back(
            Record{std::move(r.key),
                   std::vector<std::string>{
                       std::get<std::string>(std::move(r.value))}});
      } else {
        std::get<std::vector<std::string>>(grouped[slot].value)
            .push_back(std::get<std::string>(std::move(r.value)));
      }
    }
    records = std::move(grouped);
  }
  if (info_.sort_by_key) {
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return a.key < b.key;
                     });
  }
  return records;
}

TransferredRdd::TransferredRdd(RddId id, std::string name, RddPtr parent,
                               DcIndex target_dc)
    : Rdd(id, RddKind::kTransferred, parent->num_partitions(),
          std::move(name)),
      target_dc_(target_dc) {
  AddParent(std::move(parent));
}

MapPartitionsRdd::Fn RecordMapFn(std::function<Record(const Record&)> fn) {
  return [fn = std::move(fn)](int, const std::vector<Record>& input) {
    std::vector<Record> out;
    out.reserve(input.size());
    for (const Record& r : input) out.push_back(fn(r));
    return out;
  };
}

MapPartitionsRdd::Fn RecordFlatMapFn(
    std::function<std::vector<Record>(const Record&)> fn) {
  return [fn = std::move(fn)](int, const std::vector<Record>& input) {
    std::vector<Record> out;
    for (const Record& r : input) {
      std::vector<Record> produced = fn(r);
      out.insert(out.end(), std::make_move_iterator(produced.begin()),
                 std::make_move_iterator(produced.end()));
    }
    return out;
  };
}

MapPartitionsRdd::Fn RecordFilterFn(std::function<bool(const Record&)> fn) {
  return [fn = std::move(fn)](int, const std::vector<Record>& input) {
    std::vector<Record> out;
    for (const Record& r : input) {
      if (fn(r)) out.push_back(r);
    }
    return out;
  };
}

}  // namespace gs

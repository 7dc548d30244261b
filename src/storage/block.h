// Block identifiers and block payloads.
//
// Every piece of data the cluster stores — one shard of one map task's
// shuffle output, or a cached partition — is a block stored on a node and
// indexed by a BlockId. This mirrors Spark's BlockManager/shuffle-file
// model closely enough for the mechanisms under study (block location
// drives locality preferences; shuffle blocks outlive the producing stage
// for fault tolerance, Sec. II-A).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "data/record.h"

namespace gs {

struct BlockId {
  enum class Kind : std::uint8_t {
    kShuffle,  // (shuffle id, map partition, shard)
    kCached,   // (rdd id, partition, 0)
  };

  Kind kind = Kind::kShuffle;
  int a = 0;
  int b = 0;
  int c = 0;

  bool operator==(const BlockId&) const = default;

  static BlockId Shuffle(ShuffleId shuffle, int map_partition, int shard) {
    return {Kind::kShuffle, shuffle, map_partition, shard};
  }
  static BlockId Cached(RddId rdd, int partition) {
    return {Kind::kCached, rdd, partition, 0};
  }

  std::string ToString() const;
};

struct BlockIdHash {
  std::size_t operator()(const BlockId& id) const {
    std::size_t h = static_cast<std::size_t>(id.kind);
    h = h * 1000003u + static_cast<std::size_t>(id.a);
    h = h * 1000003u + static_cast<std::size_t>(id.b);
    h = h * 1000003u + static_cast<std::size_t>(id.c);
    return h;
  }
};

// Wraps records as a block payload (RecordsPtr, data/record.h).
RecordsPtr MakeRecords(std::vector<Record> records);

struct Block {
  RecordsPtr records;
  Bytes bytes = 0;  // serialized size (cached at Put time)
};

}  // namespace gs

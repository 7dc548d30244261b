#include "data/partitioner.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/hash.h"

namespace gs {

HashPartitioner::HashPartitioner(int num_shards, std::uint64_t salt)
    : num_shards_(num_shards), salt_(salt) {
  GS_CHECK(num_shards > 0);
}

int HashPartitioner::ShardOf(const std::string& key) const {
  // FNV-1a with a salt; std::hash is not guaranteed stable across
  // implementations and runs must be reproducible.
  return static_cast<int>(Fnv1a64(key, kFnvOffsetBasis ^ salt_) %
                          static_cast<std::uint64_t>(num_shards_));
}

int HashPartitioner::ShardOfHashed(const std::string& key,
                                   std::uint64_t fnv_hash) const {
  // The salt is folded into the FNV offset basis, so a salt-free hash can
  // only be reused when no salt is set (the engine never sets one; salted
  // partitioners exist for ablations and pay the rehash).
  if (salt_ != 0) return ShardOf(key);
  return static_cast<int>(fnv_hash % static_cast<std::uint64_t>(num_shards_));
}

RangePartitioner::RangePartitioner(std::vector<std::string> boundaries)
    : boundaries_(std::move(boundaries)) {
  GS_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()));
}

int RangePartitioner::num_shards() const {
  return static_cast<int>(boundaries_.size()) + 1;
}

int RangePartitioner::ShardOf(const std::string& key) const {
  auto it = std::lower_bound(boundaries_.begin(), boundaries_.end(), key);
  return static_cast<int>(it - boundaries_.begin());
}

}  // namespace gs

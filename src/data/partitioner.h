// Partitioners: map record keys to shuffle shards.
//
// Shuffle output of every map partition is split into num_shards() shards,
// one per reducer — the all-to-all pattern of Fig. 3. HashPartitioner is the
// default; RangePartitioner (from boundary keys the caller samples) backs
// sortByKey.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gs {

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual int num_shards() const = 0;

  // Shard index in [0, num_shards()) for a key. Must be deterministic.
  virtual int ShardOf(const std::string& key) const = 0;

  // Shard index given the key and its precomputed salt-free FNV-1a hash
  // (Fnv1a64(key)). The shuffle-write hot path hashes each key once and
  // reuses the hash here, for combining and for grouping; partitioners
  // that cannot use the hash fall back to ShardOf.
  virtual int ShardOfHashed(const std::string& key,
                            std::uint64_t fnv_hash) const {
    (void)fnv_hash;
    return ShardOf(key);
  }

  // True when ShardOfHashed consumes the precomputed hash. Callers that
  // would have to hash keys solely for partitioning skip the work when
  // this is false (e.g. RangePartitioner compares keys directly).
  virtual bool UsesKeyHash() const { return false; }
};

class HashPartitioner final : public Partitioner {
 public:
  explicit HashPartitioner(int num_shards, std::uint64_t salt = 0);

  int num_shards() const override { return num_shards_; }
  int ShardOf(const std::string& key) const override;
  int ShardOfHashed(const std::string& key,
                    std::uint64_t fnv_hash) const override;
  bool UsesKeyHash() const override { return salt_ == 0; }

 private:
  int num_shards_;
  std::uint64_t salt_;
};

// Splits the key space at sorted boundary keys: shard i receives keys in
// (boundary[i-1], boundary[i]]. With B boundaries there are B+1 shards.
// Ordering shards by index yields globally sorted output, as TeraSort needs.
class RangePartitioner final : public Partitioner {
 public:
  explicit RangePartitioner(std::vector<std::string> boundaries);

  int num_shards() const override;
  int ShardOf(const std::string& key) const override;

  const std::vector<std::string>& boundaries() const { return boundaries_; }

 private:
  std::vector<std::string> boundaries_;  // sorted ascending
};

}  // namespace gs

// Key-wise combining (reduce functions and map-side combine).
//
// reduceByKey-style transformations merge values of equal keys with an
// associative Combiner. Map-side combine runs the same merge on each map
// partition before the shuffle, shrinking shuffle input — the paper
// pipelines this with the map and performs it *before* the transferTo()
// push (Sec. IV-C3) so combined, smaller data crosses the WAN.
//
// A Combiner is an accumulator, shaped like Spark's Aggregator: the first
// value of a key becomes its accumulator, every later value is merged into
// it in place, and a finish step completes accumulators that merged at
// least once. A key seen once is left exactly as it arrived. The four
// factories below are the closed set of combiners; CombineByKey picks the
// kind once per call and runs a record loop typed for it, with no indirect
// call per record.
//
// MergeTermWeights accumulates by appending (term, weight) entries; its
// finish step stable-sorts the appended tail by term, merges it with the
// sorted prefix and sums each term's run left to right. That adds every
// weight in arrival order — the order of a pairwise sort-merge fold — so
// every double is bit-identical to folding the values two at a time
// (docs/PERF.md §12). Merge does the same fold early whenever the vector
// is full, leaving room for a tail as long as the prefix, so an
// accumulator stays within about twice its distinct terms; the finished
// vector has no spare capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "data/record.h"

namespace gs {

class Combiner {
 public:
  enum class Kind { kNone, kSumInt64, kSumDouble, kMergeTermWeights,
                    kConcatStrings };

  // An empty combiner: CombineByKey rejects it; a ShuffleInfo holding one
  // does not combine.
  Combiner() = default;

  Kind kind() const { return kind_; }
  char separator() const { return separator_; }
  explicit operator bool() const { return kind_ != Kind::kNone; }

  // Merges `v` into the accumulator `acc` in place. The moving overload
  // may steal `v`'s storage.
  void Merge(Value& acc, const Value& v) const;
  void Merge(Value& acc, Value&& v) const;
  // Completes an accumulator that merged at least once (term weights:
  // sorted by term, one summed entry per term, no spare capacity).
  void Finish(Value& acc) const;

 private:
  friend Combiner SumInt64();
  friend Combiner SumDouble();
  friend Combiner MergeTermWeights();
  friend Combiner ConcatStrings(char separator);

  Combiner(Kind kind, char separator) : kind_(kind), separator_(separator) {}

  Kind kind_ = Kind::kNone;
  char separator_ = '\0';
};

// The combiners.
Combiner SumInt64();
Combiner SumDouble();
Combiner MergeTermWeights();  // element-wise sum of sparse vectors
Combiner ConcatStrings(char separator = '\0');

// Combines records key-wise. Output order is the first-appearance order of
// each key, which keeps runs deterministic.
//
// Each key is FNV-1a-hashed exactly once; when `key_hashes` is non-null it
// receives the hash of each output record's key (parallel to the returned
// vector), so the shuffle-write path can partition the combined records
// without rehashing (HashPartitioner::ShardOfHashed).
//
// The const overloads copy only each key's first record; the chunk
// overload reads the chunks in place, logically concatenated. The moving
// overload consumes `records` without copying any of them.
std::vector<Record> CombineByKey(const std::vector<Record>& records,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes =
                                     nullptr);
std::vector<Record> CombineByKey(std::vector<Record>&& records,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes =
                                     nullptr);
std::vector<Record> CombineByKey(const std::vector<RecordsPtr>& chunks,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes =
                                     nullptr);

}  // namespace gs

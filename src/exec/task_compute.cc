#include "exec/task_compute.h"

#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "data/compression.h"
#include "data/partitioner.h"

namespace gs {
namespace {

// Per-thread scratch reused across compute jobs: a pool worker splitting
// map output after map output pays the shard-table and hash-vector
// allocations once, not per task. Sizes are reset per job, capacity is
// kept. Thread-local, so jobs running concurrently never share it.
struct SplitScratch {
  std::vector<std::uint64_t> hashes;
  std::vector<int> shard_of;
  std::vector<std::size_t> histogram;
  std::vector<Bytes> shard_raw;
};

SplitScratch& Scratch() {
  static thread_local SplitScratch scratch;
  return scratch;
}

}  // namespace

TaskComputeResult ComputeTask(TaskComputeSpec spec) {
  GS_CHECK(spec.output_rdd != nullptr);
  TaskComputeResult out;
  for (const RecordsPtr& chunk : spec.start.chunks) {
    out.in_records += chunk->size();
  }

  EvalResult eval =
      Evaluate(*spec.output_rdd, spec.partition, std::move(spec.start));
  std::vector<Record> records = std::move(eval.records);
  out.cache_fills = std::move(eval.cache_fills);

  // Map-side combine, consuming the owned records. The combine pass hashes
  // every key anyway, so it hands the hashes back for shard assignment
  // below — one FNV-1a per record for the whole combine-then-partition
  // path.
  std::vector<std::uint64_t>& hashes = Scratch().hashes;
  hashes.clear();
  const bool want_hashes =
      spec.output == StageOutputKind::kShuffleWrite &&
      spec.consumer_shuffle->partitioner->UsesKeyHash();
  if (spec.combine != nullptr) {
    records = CombineByKey(std::move(records), *spec.combine,
                           want_hashes ? &hashes : nullptr);
  }
  out.out_records = records.size();

  if (spec.output == StageOutputKind::kShuffleWrite) {
    // Single-pass split: one walk decides every record's shard and
    // accumulates per-shard serialized bytes (histogram prepass), then a
    // second walk moves records into exactly-sized shard vectors. The old
    // path grew each shard by push_back (log n reallocations per shard)
    // and re-walked every shard again for its serialized size.
    const Partitioner& part = *spec.consumer_shuffle->partitioner;
    const int num_shards = part.num_shards();
    const std::size_t n = records.size();
    SplitScratch& s = Scratch();
    std::vector<int>& shard_of = s.shard_of;
    shard_of.resize(n);  // every element is overwritten below
    std::vector<std::size_t>& histogram = s.histogram;
    histogram.assign(static_cast<std::size_t>(num_shards), 0);
    std::vector<Bytes>& shard_raw = s.shard_raw;
    shard_raw.assign(static_cast<std::size_t>(num_shards), 0);
    const bool hashed = want_hashes;
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = records[i];
      const int k =
          hashed ? part.ShardOfHashed(
                       r.key, spec.combine != nullptr ? hashes[i]
                                                      : Fnv1a64(r.key))
                 : part.ShardOf(r.key);
      shard_of[i] = k;
      ++histogram[static_cast<std::size_t>(k)];
      shard_raw[static_cast<std::size_t>(k)] += SerializedSize(r);
    }
    out.shards.resize(static_cast<std::size_t>(num_shards));
    for (int k = 0; k < num_shards; ++k) {
      out.shards[static_cast<std::size_t>(k)].reserve(
          histogram[static_cast<std::size_t>(k)]);
      out.out_bytes += shard_raw[static_cast<std::size_t>(k)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.shards[static_cast<std::size_t>(shard_of[i])].push_back(
          std::move(records[i]));
    }
    out.shard_bytes.resize(static_cast<std::size_t>(num_shards), 0);
    for (int k = 0; k < num_shards; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      out.shard_bytes[ks] = CompressedSize(out.shards[ks], shard_raw[ks]);
      out.shard_total_bytes += out.shard_bytes[ks];
    }
    return out;
  }

  out.out_bytes = SerializedSize(records);
  if (spec.output == StageOutputKind::kTransferProduce) {
    // Pushed data is serialized and compressed like any shuffle stream.
    out.compressed_bytes = CompressedSize(records, out.out_bytes);
  }
  if (spec.keep_records) out.records = std::move(records);
  return out;
}

}  // namespace gs

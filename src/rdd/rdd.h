// RDD lineage graph.
//
// An Rdd describes a partitioned dataset as a node in an immutable lineage
// DAG, exactly as in Spark: narrow dependencies (map, filter, union, cache)
// are pipelined into one task by the scheduler, while wide (shuffle)
// dependencies split stages. The paper's contribution is TransferredRdd —
// the result of transferTo() — a *transfer* dependency: one-to-one like a
// narrow dependency, but a task boundary, so that the child partition runs
// as a separate receiver task placed in the aggregator datacenter and the
// parent's output is proactively pushed to it (Sec. IV-B).
//
// Rdds hold no partition data; payloads live in the BlockManager and are
// produced by the executor (src/exec). Rdds are created through the Dataset
// facade (engine/dataset.h) and are immutable once built.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "data/combiner.h"
#include "data/partitioner.h"
#include "data/record.h"
#include "storage/block.h"

namespace gs {

class Rdd;
using RddPtr = std::shared_ptr<Rdd>;

enum class RddKind {
  kSource,         // generated input with fixed per-partition placement
  kMapPartitions,  // narrow, one parent, same partitioning
  kUnion,          // narrow, several parents, concatenated partitions
  kShuffled,       // wide: starts a new stage fed by a shuffle
  kTransferred,    // transferTo(): starts a receiver stage (the contribution)
};

// Everything the engine needs to know about one shuffle dependency.
struct ShuffleInfo {
  ShuffleId id = -1;
  std::shared_ptr<Partitioner> partitioner;
  // If set, values of equal keys are merged on the reduce side, and on
  // the map side before shuffle write (and before a transferTo push —
  // Sec. IV-C3) unless RunConfig::disable_map_side_combine is set.
  Combiner combine;
  // Gather values of equal (string-valued) keys into vector<string>
  // (groupByKey). Mutually exclusive with combine.
  bool group_values = false;
  // Sort records by key within each shard (sortByKey/TeraSort).
  bool sort_by_key = false;
};

class Rdd {
 public:
  Rdd(RddId id, RddKind kind, int num_partitions, std::string name);
  virtual ~Rdd() = default;

  Rdd(const Rdd&) = delete;
  Rdd& operator=(const Rdd&) = delete;

  RddId id() const { return id_; }
  RddKind kind() const { return kind_; }
  int num_partitions() const { return num_partitions_; }
  const std::string& name() const { return name_; }

  const std::vector<RddPtr>& parents() const { return parents_; }

  // Marks the dataset for caching: the first task to compute a partition
  // stores it in the BlockManager; later tasks read the local copy.
  void set_cached(bool cached) { cached_ = cached; }
  bool cached() const { return cached_; }

 protected:
  void AddParent(RddPtr parent);

 private:
  RddId id_;
  RddKind kind_;
  int num_partitions_;
  std::string name_;
  bool cached_ = false;
  std::vector<RddPtr> parents_;
};

// Generated input dataset: partitions pinned to nodes, mimicking HDFS block
// placement across datacenters. `declared_bytes` lets a partition model a
// larger on-disk file than its in-memory record sample (not used by the
// HiBench workloads, which generate full-size data).
class SourceRdd final : public Rdd {
 public:
  struct Partition {
    RecordsPtr records;
    NodeIndex node = kNoNode;
    Bytes bytes = 0;
  };

  SourceRdd(RddId id, std::string name, std::vector<Partition> partitions);

  const Partition& partition(int p) const { return partitions_.at(p); }

  Bytes total_bytes() const;

 private:
  std::vector<Partition> partitions_;
};

// Narrow per-partition transformation (map / filter / flatMap /
// mapPartitions). The function sees the partition index so that
// partition-dependent logic (e.g. sampling) stays deterministic.
class MapPartitionsRdd final : public Rdd {
 public:
  using Fn =
      std::function<std::vector<Record>(int partition,
                                        const std::vector<Record>& input)>;

  MapPartitionsRdd(RddId id, std::string name, RddPtr parent, Fn fn);

  const Fn& fn() const { return fn_; }
  const RddPtr& parent() const { return parents().front(); }

 private:
  Fn fn_;
};

// Concatenation of several datasets; partition p of the union maps to one
// partition of one parent.
class UnionRdd final : public Rdd {
 public:
  UnionRdd(RddId id, std::string name, std::vector<RddPtr> rdds);

  // Resolves a union partition to (parent index, parent partition).
  std::pair<int, int> Resolve(int partition) const;

 private:
  static int TotalPartitions(const std::vector<RddPtr>& rdds);
};

// Result of a wide transformation (reduceByKey / groupByKey / sortByKey).
// Partition k holds shard k of the parent's shuffle output.
class ShuffledRdd final : public Rdd {
 public:
  ShuffledRdd(RddId id, std::string name, RddPtr parent, ShuffleInfo info);

  const ShuffleInfo& shuffle() const { return info_; }
  const RddPtr& parent() const { return parents().front(); }

  // Reduce-side processing of a gathered shard (combine / group / sort),
  // applied by the executor once all fetches complete. `chunks` are the
  // shard's shared chunks in gather order, logically concatenated. A
  // combine reads them in place and copies only each key's first record;
  // group and sort work on a concatenated copy.
  std::vector<Record> ProcessShard(const std::vector<RecordsPtr>& chunks) const;

 private:
  ShuffleInfo info_;
};

// transferTo(): the paper's new transformation (Sec. IV-B). One-to-one with
// the parent, but executed as separate receiver tasks whose placement
// preferences point at the aggregator datacenter; the parent partition is
// pushed to the receiver as soon as it is produced.
class TransferredRdd final : public Rdd {
 public:
  // target_dc == kNoDc means "choose automatically": the engine picks the
  // datacenter holding the largest fraction of the upstream input
  // (Sec. IV-D approximates the optimal choice of Sec. III-B with map
  // *input* sizes, which are known before the map runs).
  TransferredRdd(RddId id, std::string name, RddPtr parent, DcIndex target_dc);

  DcIndex target_dc() const { return target_dc_; }
  const RddPtr& parent() const { return parents().front(); }

 private:
  DcIndex target_dc_;
};

// Builder helpers used by the Dataset facade; each returns a new graph node.
MapPartitionsRdd::Fn RecordMapFn(std::function<Record(const Record&)> fn);
MapPartitionsRdd::Fn RecordFlatMapFn(
    std::function<std::vector<Record>(const Record&)> fn);
MapPartitionsRdd::Fn RecordFilterFn(std::function<bool(const Record&)> fn);

}  // namespace gs

// Dataset: the fluent public API over the RDD graph.
//
// Mirrors the Spark RDD API the paper's applications use — map, flatMap,
// filter, union, reduceByKey, groupByKey, sortByKey, cache — plus the
// paper's new transformation, TransferTo() (Sec. IV-B), which developers
// may call explicitly; under Scheme::kAggShuffle the engine also inserts it
// implicitly before every shuffle (Sec. IV-D).
//
// Datasets are cheap handles (shared graph nodes); transformations are lazy
// and only actions (Collect/Save/Count) execute a job.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/cluster.h"
#include "rdd/rdd.h"

namespace gs {

class Dataset {
 public:
  Dataset(GeoCluster* cluster, RddPtr rdd);

  const RddPtr& rdd() const { return rdd_; }
  int num_partitions() const { return rdd_->num_partitions(); }

  // ---- Narrow transformations -------------------------------------------
  Dataset Map(std::string name, std::function<Record(const Record&)> fn) const;
  Dataset FlatMap(std::string name,
                  std::function<std::vector<Record>(const Record&)> fn) const;
  Dataset Filter(std::string name,
                 std::function<bool(const Record&)> fn) const;
  Dataset MapPartitions(std::string name, MapPartitionsRdd::Fn fn) const;
  Dataset Union(const Dataset& other) const;

  // Marks this dataset cached: computed once, then reread from memory.
  Dataset Cache() const;

  // ---- Wide transformations ---------------------------------------------
  // Merge values of equal keys with `combiner`, also on the map side (and
  // before transferTo pushes, Sec. IV-C3) unless the run sets
  // RunConfig::disable_map_side_combine.
  Dataset ReduceByKey(const Combiner& combiner, int num_shards) const;
  // Gather string values of equal keys into vector<string>.
  Dataset GroupByKey(int num_shards) const;
  // Range-partition by key and sort within each shard; concatenating shards
  // in order yields globally sorted output. Boundaries come from the
  // caller (TeraSort-style input sampling).
  Dataset SortByKey(std::vector<std::string> boundaries) const;

  // ---- The paper's transformation ---------------------------------------
  // Proactively transfers this dataset to the given datacenter (kNoDc =
  // pick the datacenter holding the largest input fraction automatically).
  // Returns a TransferredRdd handle; downstream shuffles then read
  // datacenter-local input.
  Dataset TransferTo(DcIndex target_dc = kNoDc) const;

  // ---- Actions ------------------------------------------------------------
  // Every action funnels through Run(): one job execution path, one result
  // type carrying records, metrics, trace and report (engine/cluster.h).
  // Run() is synchronous (Submit + Wait); Submit() enqueues the job on the
  // cluster's service and returns a handle, letting several jobs execute
  // concurrently (engine/job_api.h).
  RunResult Run(ActionKind action) const;
  JobHandle Submit(ActionKind action, JobOptions opts = {}) const;

  std::vector<Record> Collect() const;
  std::int64_t Count() const;  // records in the dataset; Save-style traffic
  RunResult Save() const;      // materialize on workers, ack to driver

 private:
  GeoCluster* cluster_;
  RddPtr rdd_;
};

}  // namespace gs

#include "engine/dataset.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace gs {

Dataset::Dataset(GeoCluster* cluster, RddPtr rdd)
    : cluster_(cluster), rdd_(std::move(rdd)) {
  GS_CHECK(cluster_ != nullptr);
  GS_CHECK(rdd_ != nullptr);
}

Dataset Dataset::Map(std::string name,
                     std::function<Record(const Record&)> fn) const {
  return MapPartitions(std::move(name), RecordMapFn(std::move(fn)));
}

Dataset Dataset::FlatMap(
    std::string name,
    std::function<std::vector<Record>(const Record&)> fn) const {
  return MapPartitions(std::move(name), RecordFlatMapFn(std::move(fn)));
}

Dataset Dataset::Filter(std::string name,
                        std::function<bool(const Record&)> fn) const {
  return MapPartitions(std::move(name), RecordFilterFn(std::move(fn)));
}

Dataset Dataset::MapPartitions(std::string name, MapPartitionsRdd::Fn fn) const {
  auto rdd = std::make_shared<MapPartitionsRdd>(
      cluster_->NextRddId(), std::move(name), rdd_, std::move(fn));
  return Dataset(cluster_, std::move(rdd));
}

Dataset Dataset::Union(const Dataset& other) const {
  GS_CHECK_MSG(other.cluster_ == cluster_,
               "cannot union datasets from different clusters");
  auto rdd = std::make_shared<UnionRdd>(
      cluster_->NextRddId(), "union",
      std::vector<RddPtr>{rdd_, other.rdd_});
  return Dataset(cluster_, std::move(rdd));
}

Dataset Dataset::Cache() const {
  rdd_->set_cached(true);
  return *this;
}

Dataset Dataset::ReduceByKey(const Combiner& combiner, int num_shards) const {
  ShuffleInfo info;
  info.id = cluster_->NextShuffleId();
  info.partitioner = std::make_shared<HashPartitioner>(num_shards);
  info.combine = combiner;
  auto rdd = std::make_shared<ShuffledRdd>(cluster_->NextRddId(),
                                           "reduceByKey", rdd_, std::move(info));
  return Dataset(cluster_, std::move(rdd));
}

Dataset Dataset::GroupByKey(int num_shards) const {
  ShuffleInfo info;
  info.id = cluster_->NextShuffleId();
  info.partitioner = std::make_shared<HashPartitioner>(num_shards);
  info.group_values = true;
  auto rdd = std::make_shared<ShuffledRdd>(cluster_->NextRddId(),
                                           "groupByKey", rdd_, std::move(info));
  return Dataset(cluster_, std::move(rdd));
}

Dataset Dataset::SortByKey(std::vector<std::string> boundaries) const {
  ShuffleInfo info;
  info.id = cluster_->NextShuffleId();
  info.partitioner =
      std::make_shared<RangePartitioner>(std::move(boundaries));
  info.sort_by_key = true;
  auto rdd = std::make_shared<ShuffledRdd>(cluster_->NextRddId(), "sortByKey",
                                           rdd_, std::move(info));
  return Dataset(cluster_, std::move(rdd));
}

Dataset Dataset::TransferTo(DcIndex target_dc) const {
  GS_CHECK(target_dc == kNoDc ||
           (target_dc >= 0 &&
            target_dc < cluster_->topology().num_datacenters()));
  auto rdd = std::make_shared<TransferredRdd>(
      cluster_->NextRddId(), "transferTo", rdd_, target_dc);
  return Dataset(cluster_, std::move(rdd));
}

RunResult Dataset::Run(ActionKind action) const {
  return cluster_->RunJob(rdd_, action);
}

JobHandle Dataset::Submit(ActionKind action, JobOptions opts) const {
  return cluster_->Submit(rdd_, action, std::move(opts));
}

std::vector<Record> Dataset::Collect() const {
  return Run(ActionKind::kCollect).records;
}

std::int64_t Dataset::Count() const {
  // Counting materializes the dataset but only ships per-partition counts;
  // modelled as a Save-style job plus a local reduction of the counts.
  RunResult r = Run(ActionKind::kSave);
  std::int64_t count = 0;
  for (const Record& rec : r.records) {
    count += std::get<std::int64_t>(rec.value);
  }
  return count;
}

RunResult Dataset::Save() const { return Run(ActionKind::kSave); }

}  // namespace gs

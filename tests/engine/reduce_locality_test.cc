// Spark's reducer placement preference (a node storing >= 20% of a shard's
// input becomes preferred) — the hook Push/Aggregate exploits: once
// shuffle input is aggregated, reducers follow it without any scheduler
// change (Sec. III-C, IV-B).
#include <gtest/gtest.h>

#include "engine/cluster.h"
#include "engine/dataset.h"

namespace gs {
namespace {

RunConfig QuietSpark() {
  RunConfig cfg;
  cfg.scheme = Scheme::kSpark;
  cfg.seed = 9;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  return cfg;
}

std::vector<SourceRdd::Partition> InputConfinedTo(const Topology& topo,
                                                  DcIndex dc) {
  std::vector<SourceRdd::Partition> parts;
  const auto& nodes = topo.nodes_in(dc);
  for (int p = 0; p < 8; ++p) {
    std::vector<Record> records;
    for (int i = 0; i < 200; ++i) {
      records.push_back({"k" + std::to_string((p * 200 + i) % 61),
                         std::int64_t{1}});
    }
    SourceRdd::Partition part;
    part.records = MakeRecords(std::move(records));
    part.node = nodes[p % 4];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  return parts;
}

TEST(ReduceLocalityTest, StockSparkKeepsConfinedShuffleLocal) {
  // All input (hence all map output) lives in one datacenter: each of its
  // 4 workers holds ~25% >= 20% of every shard, so even stock Spark's
  // locality rule places the reducers there and nothing crosses the WAN.
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietSpark());
  Dataset data = cluster.CreateSource(
      "confined", InputConfinedTo(cluster.topology(), 3));
  RunResult run = data.ReduceByKey(SumInt64(), 8).Run(ActionKind::kSave);
  EXPECT_EQ(run.metrics.cross_dc_fetch_bytes, 0)
      << "reducers should follow the >=20% preference into dc 3";
}

TEST(ReduceLocalityTest, SpreadShuffleGivesNoPreferenceAndFetchesAcrossWan) {
  // Input spread over 24 workers: each node holds ~4% of a shard, below
  // the 20% threshold -> reducers get no preference and fetch remotely.
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietSpark());
  std::vector<Record> records;
  for (int i = 0; i < 1600; ++i) {
    records.push_back({"k" + std::to_string(i % 61), std::int64_t{1}});
  }
  Dataset data = cluster.Parallelize("spread", records, 2);
  RunResult run = data.ReduceByKey(SumInt64(), 8).Run(ActionKind::kSave);
  EXPECT_GT(run.metrics.cross_dc_fetch_bytes, 0);
}

TEST(ReduceLocalityTest, NoSlotLeaksAcrossJobs) {
  GeoCluster cluster(Ec2SixRegionTopology(100), QuietSpark());
  std::vector<Record> records;
  for (int i = 0; i < 600; ++i) {
    records.push_back({"k" + std::to_string(i % 31), std::int64_t{1}});
  }
  Dataset data = cluster.Parallelize("d", records, 2);
  for (int run = 0; run < 3; ++run) {
    (void)data.ReduceByKey(SumInt64(), 8).Collect();
    for (DcIndex dc = 0; dc < cluster.topology().num_datacenters(); ++dc) {
      EXPECT_EQ(cluster.scheduler().busy_slots_in(dc), 0)
          << "slot leak in dc " << dc << " after job " << run;
    }
  }
}

}  // namespace
}  // namespace gs

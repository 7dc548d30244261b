// Semantics of transferTo() — the paper's contribution (Sec. IV).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "engine/cluster.h"
#include "engine/dataset.h"
#include "storage/block.h"
#include "storage/map_output_tracker.h"

namespace gs {
namespace {

RunConfig BaseConfig(Scheme scheme) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 3;
  cfg.cost = CostModel{}.Scaled(100);
  // Deterministic network for precise assertions.
  cfg.net.jitter_interval = 0;
  cfg.net.wan_stall_prob = 0;
  cfg.net.wan_flow_efficiency_min = 1.0;
  cfg.cost.straggler_sigma = 0;
  cfg.cost.straggler_prob = 0;
  return cfg;
}

std::vector<Record> SomeRecords(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.push_back({"key" + std::to_string(i),
                       std::string(50, static_cast<char>('a' + i % 26))});
  }
  return records;
}

TEST(TransferToTest, ExplicitTransferMovesShuffleWritesToTargetDc) {
  RunConfig cfg = BaseConfig(Scheme::kSpark);  // no auto insertion
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  Dataset data = cluster.Parallelize("data", SomeRecords(600), 2);
  const DcIndex target = 4;
  Dataset counts = data.TransferTo(target)
                       .Map("tag",
                            [](const Record& r) {
                              return Record{r.key.substr(0, 4),
                                            std::int64_t{1}};
                            })
                       .ReduceByKey(SumInt64(), 8);
  RunResult run = counts.Run(ActionKind::kCollect);

  // After the job, every registered map output of the shuffle must live in
  // the target datacenter.
  const Topology& topo = cluster.topology();
  const MapOutputTracker& tracker = cluster.tracker();
  ASSERT_TRUE(tracker.HasShuffle(0));
  auto per_dc = tracker.BytesPerDc(0, topo);
  for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
    if (dc == target) {
      EXPECT_GT(per_dc[dc], 0);
    } else {
      EXPECT_EQ(per_dc[dc], 0) << "shuffle input left in dc " << dc;
    }
  }
  EXPECT_GT(run.metrics.cross_dc_push_bytes, 0);
  EXPECT_EQ(run.metrics.cross_dc_fetch_bytes, 0);
}

TEST(TransferToTest, AutoAggregationPicksLargestInputDc) {
  RunConfig cfg = BaseConfig(Scheme::kAggShuffle);
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);

  // Skew the input: 2/3 of partitions in dc 2.
  std::vector<SourceRdd::Partition> parts;
  Rng rng(4);
  const Topology& topo = cluster.topology();
  for (int p = 0; p < 12; ++p) {
    SourceRdd::Partition part;
    part.records = MakeRecords(SomeRecords(40));
    DcIndex dc = p < 8 ? 2 : (p % 6);
    part.node = topo.nodes_in(dc)[p % 4];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  Dataset data = cluster.CreateSource("skewed", std::move(parts));
  (void)data.Map("tag",
                 [](const Record& r) {
                   return Record{r.key.substr(0, 4), std::int64_t{1}};
                 })
      .ReduceByKey(SumInt64(), 8)
      .Collect();

  auto per_dc = cluster.tracker().BytesPerDc(0, topo);
  Bytes best = *std::max_element(per_dc.begin(), per_dc.end());
  EXPECT_EQ(per_dc[2], best) << "aggregator must be the largest-input dc";
  EXPECT_EQ(best, std::accumulate(per_dc.begin(), per_dc.end(), Bytes{0}))
      << "all shuffle input must be aggregated into one dc";
}

TEST(TransferToTest, NoOpWhenDataAlreadyInTargetDc) {
  RunConfig cfg = BaseConfig(Scheme::kSpark);
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  // All input already in dc 1.
  std::vector<SourceRdd::Partition> parts;
  const Topology& topo = cluster.topology();
  for (int p = 0; p < 4; ++p) {
    SourceRdd::Partition part;
    part.records = MakeRecords(SomeRecords(50));
    part.node = topo.nodes_in(1)[p];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }
  Dataset data = cluster.CreateSource("local", std::move(parts));
  RunResult run = data.TransferTo(1)
                      .Map("tag",
                           [](const Record& r) {
                             return Record{r.key, std::int64_t{1}};
                           })
                      .ReduceByKey(SumInt64(), 4)
                      .Run(ActionKind::kCollect);
  // Sec. IV-C2 "minimum overhead": nothing crossed datacenters except the
  // driver collect (excluded from this metric).
  EXPECT_EQ(run.metrics.cross_dc_push_bytes, 0);
  EXPECT_EQ(run.metrics.cross_dc_bytes, 0);
}

TEST(TransferToTest, AggShuffleKeepsIterationsLocalAfterFirstShuffle) {
  RunConfig cfg = BaseConfig(Scheme::kAggShuffle);
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  Dataset data = cluster.Parallelize("data", SomeRecords(400), 2);
  // Two chained shuffles.
  Dataset once = data.Map("tag",
                          [](const Record& r) {
                            return Record{r.key.substr(0, 4),
                                          std::int64_t{1}};
                          })
                     .ReduceByKey(SumInt64(), 8);
  Dataset twice = once.Map("retag",
                           [](const Record& r) {
                             return Record{r.key.substr(0, 2), r.value};
                           })
                      .ReduceByKey(SumInt64(), 8);
  (void)twice.Collect();

  // The second shuffle's input was produced in the aggregator dc, so its
  // transferTo is transparent: all push traffic belongs to shuffle 1.
  const Topology& topo = cluster.topology();
  auto s2_per_dc = cluster.tracker().BytesPerDc(1, topo);
  int dcs_with_data = 0;
  for (Bytes b : s2_per_dc) dcs_with_data += b > 0;
  EXPECT_EQ(dcs_with_data, 1) << "iteration shuffle must stay aggregated";
}

TEST(TransferToTest, ResultsIdenticalWithAndWithoutTransfer) {
  auto run = [](Scheme scheme) {
    RunConfig cfg = BaseConfig(scheme);
    GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
    Dataset data = cluster.Parallelize("data", SomeRecords(300), 2);
    auto result = data.Map("tag",
                           [](const Record& r) {
                             return Record{r.key.substr(0, 4),
                                           std::int64_t{1}};
                           })
                      .ReduceByKey(SumInt64(), 8)
                      .Collect();
    std::sort(result.begin(), result.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    return result;
  };
  EXPECT_EQ(run(Scheme::kSpark), run(Scheme::kAggShuffle));
  EXPECT_EQ(run(Scheme::kSpark), run(Scheme::kCentralized));
}

TEST(TransferToTest, TransferThenCollectWorks) {
  RunConfig cfg = BaseConfig(Scheme::kSpark);
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  Dataset data = cluster.Parallelize("data", SomeRecords(100), 1);
  RunResult run = data.TransferTo(5).Run(ActionKind::kCollect);
  EXPECT_EQ(run.records.size(), 100u);
  EXPECT_GT(run.metrics.cross_dc_push_bytes, 0);
}

// Receivers compute off the event loop: each receiver's compute is
// submitted when its producer notifies and joined only when its write
// phase starts, so receivers whose producers notify before the first push
// lands run concurrently in the pool. Ten producers outside the target
// datacenter finish together and push over the WAN; the probe blocks
// (bounded) until a second receiver compute is in flight. If receivers
// were joined one at a time on the loop, the peak would stay at one.
TEST(TransferToTest, ReceiverComputesOverlapOffTheEventLoop) {
  constexpr DcIndex kTarget = 0;
  RunConfig cfg = BaseConfig(Scheme::kSpark);
  cfg.compute_threads = 4;
  GeoCluster cluster(Ec2SixRegionTopology(100), cfg);
  const Topology& topo = cluster.topology();
  std::vector<NodeIndex> producers;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker && topo.dc_of(n) != kTarget) producers.push_back(n);
  }
  std::vector<SourceRdd::Partition> parts;
  for (int p = 0; p < 10; ++p) {
    SourceRdd::Partition part;
    part.records = MakeRecords(SomeRecords(50));
    part.node = producers[static_cast<std::size_t>(p) % producers.size()];
    part.bytes = SerializedSize(*part.records);
    parts.push_back(std::move(part));
  }

  struct Probe {
    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;
    int peak = 0;
  } probe;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  auto count_in_flight = [&probe, deadline](int,
                                            const std::vector<Record>& in) {
    std::unique_lock<std::mutex> lock(probe.mu);
    probe.peak = std::max(probe.peak, ++probe.in_flight);
    probe.cv.notify_all();
    probe.cv.wait_until(lock, deadline, [&probe] { return probe.peak >= 2; });
    --probe.in_flight;
    return in;
  };
  RunResult run = cluster.CreateSource("spread", std::move(parts))
                      .TransferTo(kTarget)
                      .MapPartitions("count-in-flight", count_in_flight)
                      .Run(ActionKind::kCollect);
  EXPECT_EQ(run.records.size(), 500u);
  EXPECT_GE(probe.peak, 2)
      << "receiver computes ran one at a time: the loop joins each one "
         "synchronously";
}

}  // namespace
}  // namespace gs

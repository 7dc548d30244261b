#include "dag/dag_scheduler.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gs {
namespace {

RddPtr Source(RddId id, int partitions = 4) {
  std::vector<SourceRdd::Partition> parts(partitions);
  for (int p = 0; p < partitions; ++p) {
    parts[p].records = MakeRecords({{"k" + std::to_string(p),
                                     std::int64_t{p}}});
    parts[p].node = p;
    parts[p].bytes = 10;
  }
  return std::make_shared<SourceRdd>(id, "src", std::move(parts));
}

RddPtr Identity(RddId id, RddPtr parent, std::string name = "map") {
  return std::make_shared<MapPartitionsRdd>(
      id, std::move(name), std::move(parent),
      [](int, const std::vector<Record>& in) { return in; });
}

ShuffleInfo Shuffle(ShuffleId id, int shards, Combiner combine = {}) {
  ShuffleInfo info;
  info.id = id;
  info.partitioner = std::make_shared<HashPartitioner>(shards);
  info.combine = combine;
  return info;
}

int next_id = 100;
RddId NewId() { return next_id++; }

TEST(StageBuilderTest, SingleStageForNarrowChain) {
  RddPtr graph = Identity(1, Identity(2, Source(0)));
  auto stages = BuildStages(graph);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].output, StageOutputKind::kResult);
  EXPECT_EQ(stages[0].num_tasks(), 4);
  EXPECT_TRUE(stages[0].barrier_parents.empty());
  EXPECT_FALSE(stages[0].starts_at_transfer);
}

TEST(StageBuilderTest, ShuffleSplitsTwoStages) {
  RddPtr mapped = Identity(1, Source(0));
  auto shuffled = std::make_shared<ShuffledRdd>(2, "red", mapped,
                                                Shuffle(0, 8));
  auto stages = BuildStages(shuffled);
  ASSERT_EQ(stages.size(), 2u);
  const Stage& map_stage = stages[0];
  const Stage& result = stages[1];
  EXPECT_EQ(map_stage.output, StageOutputKind::kShuffleWrite);
  EXPECT_EQ(map_stage.consumer_shuffle->shuffle().id, 0);
  EXPECT_EQ(map_stage.num_tasks(), 4);
  EXPECT_EQ(result.output, StageOutputKind::kResult);
  EXPECT_EQ(result.num_tasks(), 8);
  EXPECT_EQ(result.barrier_parents, (std::vector<StageId>{0}));
}

TEST(StageBuilderTest, TransferSplitsProducerAndReceiver) {
  RddPtr mapped = Identity(1, Source(0));
  auto transferred = std::make_shared<TransferredRdd>(2, "t", mapped, kNoDc);
  auto shuffled = std::make_shared<ShuffledRdd>(3, "red", transferred,
                                                Shuffle(0, 8));
  auto stages = BuildStages(shuffled);
  ASSERT_EQ(stages.size(), 3u);
  const Stage& producer = stages[0];
  const Stage& receiver = stages[1];
  const Stage& result = stages[2];

  EXPECT_EQ(producer.output, StageOutputKind::kTransferProduce);
  EXPECT_EQ(producer.consumer_transfer->id(), 2);
  EXPECT_EQ(producer.transfer_consumer, receiver.id);

  EXPECT_TRUE(receiver.starts_at_transfer);
  EXPECT_EQ(receiver.transfer_producer, producer.id);
  EXPECT_EQ(receiver.output, StageOutputKind::kShuffleWrite);
  EXPECT_EQ(receiver.num_tasks(), producer.num_tasks());
  // Receiver stages are pipelined, not barrier-gated.
  EXPECT_TRUE(receiver.barrier_parents.empty());

  EXPECT_EQ(result.barrier_parents, (std::vector<StageId>{receiver.id}));
}

TEST(StageBuilderTest, CombineMovesToTransferProducer) {
  // Sec. IV-C3: with a transfer below a combining shuffle, the *producer*
  // combines before the push and the receiver does not recombine.
  RddPtr mapped = Identity(1, Source(0));
  auto shuffled_plain = std::make_shared<ShuffledRdd>(
      2, "red", mapped, Shuffle(0, 4, SumInt64()));
  auto plain = BuildStages(shuffled_plain);
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_TRUE(plain[0].pre_output_combine);

  auto transferred = std::make_shared<TransferredRdd>(3, "t", mapped, kNoDc);
  auto shuffled = std::make_shared<ShuffledRdd>(4, "red", transferred,
                                                Shuffle(1, 4, SumInt64()));
  auto stages = BuildStages(shuffled);
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_TRUE(stages[0].pre_output_combine)
      << "producer must combine before the push";
  EXPECT_FALSE(stages[1].pre_output_combine)
      << "receiver must not recombine";
}

TEST(StageBuilderTest, IterativeGraphBuildsChainOfStages) {
  // Two consecutive shuffles (one PageRank-like iteration boundary).
  RddPtr s1 = std::make_shared<ShuffledRdd>(1, "s1", Identity(0, Source(9)),
                                            Shuffle(0, 4));
  RddPtr m = Identity(2, s1);
  RddPtr s2 = std::make_shared<ShuffledRdd>(3, "s2", m, Shuffle(1, 4));
  auto stages = BuildStages(s2);
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].output, StageOutputKind::kShuffleWrite);
  EXPECT_EQ(stages[1].output, StageOutputKind::kShuffleWrite);
  EXPECT_EQ(stages[1].barrier_parents, (std::vector<StageId>{0}));
  EXPECT_EQ(stages[2].barrier_parents, (std::vector<StageId>{1}));
}

TEST(StageBuilderTest, UnionOfSourceAndShuffleHasBothLeaves) {
  RddPtr src = Source(0);
  auto shuffled = std::make_shared<ShuffledRdd>(
      1, "s", Identity(2, Source(3)), Shuffle(0, 4));
  auto u = std::make_shared<UnionRdd>(4, "u",
                                      std::vector<RddPtr>{src, shuffled});
  auto stages = BuildStages(Identity(5, u));
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[1].num_tasks(), 8);  // 4 source + 4 shuffled partitions
  EXPECT_EQ(stages[1].barrier_parents, (std::vector<StageId>{0}));
}

TEST(ResolveLeafTest, WalksNarrowChain) {
  RddPtr src = Source(0);
  RddPtr graph = Identity(1, Identity(2, src));
  LeafRef leaf = ResolveLeaf(*graph, 3);
  EXPECT_EQ(leaf.leaf, src.get());
  EXPECT_EQ(leaf.partition, 3);
}

TEST(ResolveLeafTest, ResolvesThroughUnion) {
  RddPtr a = Source(0, 2);
  RddPtr b = Source(1, 3);
  auto u = std::make_shared<UnionRdd>(2, "u", std::vector<RddPtr>{a, b});
  LeafRef leaf = ResolveLeaf(*Identity(3, u), 4);
  EXPECT_EQ(leaf.leaf, b.get());
  EXPECT_EQ(leaf.partition, 2);
}

TEST(ResolveLeafTest, BoundaryIsItsOwnLeaf) {
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source(0), Shuffle(0, 4));
  LeafRef leaf = ResolveLeaf(*s, 2);
  EXPECT_EQ(leaf.leaf, s.get());
  EXPECT_EQ(leaf.partition, 2);
}

TEST(CollectLeavesTest, DeduplicatesSharedLeaf) {
  RddPtr src = Source(0);
  auto u = std::make_shared<UnionRdd>(1, "u",
                                      std::vector<RddPtr>{src, src});
  auto leaves = CollectLeaves(*u);
  EXPECT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], src.get());
}

// --- automatic transferTo insertion (Sec. IV-D) ---

TEST(InsertTransfersTest, InsertsBeforeEveryShuffle) {
  RddPtr mapped = Identity(1, Source(0));
  auto shuffled = std::make_shared<ShuffledRdd>(2, "red", mapped,
                                                Shuffle(0, 8));
  RddPtr rewritten =
      InsertTransfersBeforeShuffles(shuffled, [] { return NewId(); });
  ASSERT_NE(rewritten.get(), shuffled.get());
  ASSERT_EQ(rewritten->kind(), RddKind::kShuffled);
  const auto& s = static_cast<const ShuffledRdd&>(*rewritten);
  EXPECT_EQ(s.parent()->kind(), RddKind::kTransferred);
  const auto& t = static_cast<const TransferredRdd&>(*s.parent());
  EXPECT_EQ(t.target_dc(), kNoDc);  // auto-selected at run time
  EXPECT_EQ(t.parent()->kind(), RddKind::kMapPartitions);
  // Shuffle identity (partitioner, id) is preserved.
  EXPECT_EQ(s.shuffle().id, 0);
  EXPECT_EQ(s.num_partitions(), 8);
}

TEST(InsertTransfersTest, RespectsExplicitTransfer) {
  RddPtr mapped = Identity(1, Source(0));
  auto t = std::make_shared<TransferredRdd>(2, "explicit", mapped, 3);
  auto shuffled = std::make_shared<ShuffledRdd>(3, "red", t, Shuffle(0, 4));
  RddPtr rewritten =
      InsertTransfersBeforeShuffles(shuffled, [] { return NewId(); });
  // Nothing below the shuffle changed: the explicit transfer survives.
  EXPECT_EQ(rewritten.get(), shuffled.get());
}

TEST(InsertTransfersTest, SharesUntouchedSubgraphs) {
  RddPtr src = Source(0);
  RddPtr mapped = Identity(1, src);
  auto shuffled = std::make_shared<ShuffledRdd>(2, "red", mapped,
                                                Shuffle(0, 4));
  RddPtr rewritten =
      InsertTransfersBeforeShuffles(shuffled, [] { return NewId(); });
  const auto& s = static_cast<const ShuffledRdd&>(*rewritten);
  const auto& t = static_cast<const TransferredRdd&>(*s.parent());
  // The narrow chain below the inserted transfer is shared, not cloned.
  EXPECT_EQ(t.parent().get(), mapped.get());
}

TEST(InsertTransfersTest, PreservesCachedFlags) {
  RddPtr mapped = Identity(1, Source(0));
  auto shuffled = std::make_shared<ShuffledRdd>(2, "red", mapped,
                                                Shuffle(0, 4));
  shuffled->set_cached(true);
  RddPtr rewritten =
      InsertTransfersBeforeShuffles(shuffled, [] { return NewId(); });
  EXPECT_TRUE(rewritten->cached());
}

TEST(InsertTransfersTest, RewritesIterativeChains) {
  // shuffle -> map -> shuffle: both shuffles get a transfer below them.
  RddPtr s1 = std::make_shared<ShuffledRdd>(1, "s1", Identity(0, Source(9)),
                                            Shuffle(0, 4));
  RddPtr s2 = std::make_shared<ShuffledRdd>(3, "s2", Identity(2, s1),
                                            Shuffle(1, 4));
  RddPtr rewritten =
      InsertTransfersBeforeShuffles(s2, [] { return NewId(); });
  auto stages = BuildStages(rewritten);
  // src->map (producer), receiver, red1->map (producer), receiver, result.
  EXPECT_EQ(stages.size(), 5u);
  int receiver_stages = 0;
  for (const Stage& st : stages) {
    if (st.starts_at_transfer) ++receiver_stages;
  }
  EXPECT_EQ(receiver_stages, 2);
}

TEST(InsertTransfersTest, MemoizesSharedNodes) {
  // A diamond: the same shuffled rdd consumed twice through different maps
  // must be rewritten once (same pointer in both branches).
  auto shuffled = std::make_shared<ShuffledRdd>(
      1, "s", Identity(0, Source(9)), Shuffle(0, 4));
  auto left = Identity(2, shuffled, "left");
  auto right = Identity(3, shuffled, "right");
  auto u = std::make_shared<UnionRdd>(4, "u",
                                      std::vector<RddPtr>{left, right});
  RddPtr rewritten = InsertTransfersBeforeShuffles(u, [] { return NewId(); });
  const auto& ru = static_cast<const UnionRdd&>(*rewritten);
  const auto& rl = static_cast<const MapPartitionsRdd&>(*ru.parents()[0]);
  const auto& rr = static_cast<const MapPartitionsRdd&>(*ru.parents()[1]);
  EXPECT_EQ(rl.parent().get(), rr.parent().get());
}

}  // namespace
}  // namespace gs

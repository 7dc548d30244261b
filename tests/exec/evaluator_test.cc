#include "exec/evaluator.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "exec/task_compute.h"

namespace gs {
namespace {

RddPtr Source(RddId id, int partitions = 2) {
  std::vector<SourceRdd::Partition> parts(partitions);
  for (int p = 0; p < partitions; ++p) {
    parts[p].records = MakeRecords(
        {{"k" + std::to_string(p), std::int64_t{p * 10}}});
    parts[p].node = p;
    parts[p].bytes = 10;
  }
  return std::make_shared<SourceRdd>(id, "src", std::move(parts));
}

MapPartitionsRdd::Fn AddOne() {
  return [](int, const std::vector<Record>& in) {
    std::vector<Record> out;
    for (const Record& r : in) {
      out.push_back({r.key, std::get<std::int64_t>(r.value) + 1});
    }
    return out;
  };
}

TEST(EvaluatorTest, EvaluatesNarrowChainFromSource) {
  RddPtr src = Source(0);
  auto m1 = std::make_shared<MapPartitionsRdd>(1, "m1", src, AddOne());
  auto m2 = std::make_shared<MapPartitionsRdd>(2, "m2", m1, AddOne());

  EvalStart start;
  start.rdd = src.get();
  start.partition = 1;
  start.chunks = {MakeRecords({{"k1", std::int64_t{10}}})};
  EvalResult result = Evaluate(*m2, 1, std::move(start));
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result.records[0].value), 12);
  EXPECT_TRUE(result.cache_fills.empty());
}

TEST(EvaluatorTest, PartitionIndexIsVisibleToFn) {
  RddPtr src = Source(0, 3);
  auto tagger = std::make_shared<MapPartitionsRdd>(
      1, "tag", src, [](int p, const std::vector<Record>& in) {
        std::vector<Record> out = in;
        for (Record& r : out) r.key = "p" + std::to_string(p);
        return out;
      });
  EvalStart start;
  start.rdd = src.get();
  start.partition = 2;
  start.chunks = {MakeRecords({{"x", std::int64_t{0}}})};
  EvalResult result = Evaluate(*tagger, 2, std::move(start));
  EXPECT_EQ(result.records[0].key, "p2");
}

TEST(EvaluatorTest, ShuffledBoundaryAppliesProcessShard) {
  ShuffleInfo info;
  info.id = 0;
  info.partitioner = std::make_shared<HashPartitioner>(2);
  info.combine = SumInt64();
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source(0), info);

  EvalStart start;
  start.rdd = s.get();
  start.partition = 0;
  start.chunks = {
      MakeRecords({{"a", std::int64_t{1}}, {"a", std::int64_t{2}}})};
  EvalResult result = Evaluate(*s, 0, std::move(start));
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result.records[0].value), 3);
}

// A cache hit is the cached rdd's final output: the chunk comes back as
// it is — not re-combined, not re-sorted, not re-cached.
TEST(EvaluatorTest, CacheHitSkipsProcessShard) {
  ShuffleInfo info;
  info.id = 0;
  info.partitioner = std::make_shared<HashPartitioner>(2);
  info.combine = SumInt64();
  info.sort_by_key = true;
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source(0), info);
  s->set_cached(true);
  const RecordsPtr chunk = MakeRecords(
      {{"b", std::int64_t{1}}, {"a", std::int64_t{2}}, {"a", std::int64_t{3}}});

  EvalStart start;
  start.rdd = s.get();
  start.partition = 0;
  start.chunks = {chunk};
  start.already_processed = true;
  EvalResult result = Evaluate(*s, 0, std::move(start));
  EXPECT_EQ(result.records, *chunk);
  EXPECT_TRUE(result.cache_fills.empty());
}

TEST(EvaluatorTest, CachedIntermediateProducesCacheFill) {
  RddPtr src = Source(0);
  auto m1 = std::make_shared<MapPartitionsRdd>(1, "m1", src, AddOne());
  m1->set_cached(true);
  auto m2 = std::make_shared<MapPartitionsRdd>(2, "m2", m1, AddOne());

  EvalStart start;
  start.rdd = src.get();
  start.partition = 0;
  start.chunks = {MakeRecords({{"k0", std::int64_t{0}}})};
  EvalResult result = Evaluate(*m2, 0, std::move(start));
  ASSERT_EQ(result.cache_fills.size(), 1u);
  EXPECT_EQ(result.cache_fills[0].rdd, 1);
  EXPECT_EQ(result.cache_fills[0].partition, 0);
  EXPECT_EQ(std::get<std::int64_t>((*result.cache_fills[0].records)[0].value),
            1);
  EXPECT_EQ(std::get<std::int64_t>(result.records[0].value), 2);
}

TEST(EvaluatorTest, UnionRoutesToCorrectParent) {
  RddPtr a = Source(0, 2);
  RddPtr b = Source(1, 2);
  auto u = std::make_shared<UnionRdd>(2, "u", std::vector<RddPtr>{a, b});
  auto m = std::make_shared<MapPartitionsRdd>(3, "m", u, AddOne());

  EvalStart start;
  start.rdd = b.get();
  start.partition = 1;
  start.chunks = {MakeRecords({{"k1", std::int64_t{100}}})};
  EvalResult result = Evaluate(*m, 3, std::move(start));
  EXPECT_EQ(std::get<std::int64_t>(result.records[0].value), 101);
}

TEST(EvaluatorTest, WrongBoundaryThrows) {
  RddPtr src = Source(0);
  auto m = std::make_shared<MapPartitionsRdd>(1, "m", src, AddOne());
  EvalStart start;
  start.rdd = m.get();  // claiming the map is the boundary
  start.partition = 0;
  start.chunks = {};
  // Evaluating the map itself from "its own" records is fine...
  EXPECT_NO_THROW(Evaluate(*m, 0, start));
  // ...but evaluating from a *different* boundary that is never reached
  // must throw (partition mismatch or unvisited boundary).
  EvalStart bad;
  bad.rdd = src.get();
  bad.partition = 1;  // task partition 0 resolves to source partition 0
  bad.chunks = {};
  EXPECT_THROW(Evaluate(*m, 0, std::move(bad)), CheckFailure);
}

ShuffleInfo SortInfo() {
  ShuffleInfo info;
  info.id = 0;
  info.partitioner = std::make_shared<HashPartitioner>(2);
  info.sort_by_key = true;
  return info;
}

std::vector<std::string> KeysAndValues(const std::vector<Record>& records) {
  std::vector<std::string> out;
  for (const Record& r : records) out.push_back(ToString(r));
  return out;
}

// A shuffle shard arrives as one chunk per map output, in map order. The
// chunks are concatenated in that order before ProcessShard, so the stable
// sort keeps equal keys in chunk order.
TEST(EvaluatorTest, MultiChunkShuffledBoundaryIsConcatenatedInChunkOrder) {
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source(0), SortInfo());
  const RecordsPtr c0 =
      MakeRecords({{"b", std::int64_t{0}}, {"a", std::int64_t{0}}});
  const RecordsPtr c1 =
      MakeRecords({{"a", std::int64_t{1}}, {"b", std::int64_t{1}}});
  const RecordsPtr c2 = MakeRecords({{"a", std::int64_t{2}}});

  EvalStart start;
  start.rdd = s.get();
  start.partition = 0;
  start.chunks = {c0, c1, c2};
  std::vector<Record> forward = Evaluate(*s, 0, start).records;
  EXPECT_EQ(KeysAndValues(forward),
            (std::vector<std::string>{"(a -> 0)", "(a -> 1)", "(a -> 2)",
                                      "(b -> 0)", "(b -> 1)"}));

  start.chunks = {c2, c1, c0};
  std::vector<Record> reversed = Evaluate(*s, 0, start).records;
  EXPECT_EQ(KeysAndValues(reversed),
            (std::vector<std::string>{"(a -> 2)", "(a -> 1)", "(a -> 0)",
                                      "(b -> 1)", "(b -> 0)"}));
  // The chunks themselves are never written.
  EXPECT_EQ(KeysAndValues(*c0),
            (std::vector<std::string>{"(b -> 0)", "(a -> 0)"}));
}

// A single boundary chunk under a narrow function is handed to it in
// place: the function sees the chunk's own vector, not a copy.
TEST(EvaluatorTest, SingleSourceChunkUnderMapIsReadInPlace) {
  RddPtr src = Source(0);
  const std::vector<Record>* seen = nullptr;
  auto m = std::make_shared<MapPartitionsRdd>(
      1, "m", src, [&seen](int, const std::vector<Record>& in) {
        seen = &in;
        return in;
      });
  const RecordsPtr chunk = MakeRecords({{"k0", std::int64_t{7}}});

  EvalStart start;
  start.rdd = src.get();
  start.partition = 0;
  start.chunks = {chunk};
  EvalResult result = Evaluate(*m, 0, std::move(start));
  EXPECT_EQ(seen, chunk.get());
  EXPECT_EQ(result.records, *chunk);
}

TEST(EvaluatorTest, ComputeTaskCountsRecordsAcrossChunks) {
  ShuffleInfo info;
  info.id = 0;
  info.partitioner = std::make_shared<HashPartitioner>(2);
  info.combine = SumInt64();
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source(0), info);

  TaskComputeSpec spec;
  spec.output_rdd = s.get();
  spec.partition = 0;
  spec.start.rdd = s.get();
  spec.start.partition = 0;
  spec.start.chunks = {
      MakeRecords({{"a", std::int64_t{1}}, {"b", std::int64_t{1}}}),
      MakeRecords({}),
      MakeRecords({{"a", std::int64_t{1}},
                   {"b", std::int64_t{1}},
                   {"a", std::int64_t{1}}})};
  TaskComputeResult out = ComputeTask(std::move(spec));
  EXPECT_EQ(out.in_records, 5u);
  EXPECT_EQ(out.out_records, 2u);
  EXPECT_EQ(KeysAndValues(out.records),
            (std::vector<std::string>{"(a -> 3)", "(b -> 2)"}));
}

// A spec that does not keep its records (a Save result) frees them inside
// the compute job: every count and size is the same as when it keeps them.
TEST(EvaluatorTest, ComputeTaskWithoutRecordsKeepsCountsAndSizes) {
  RddPtr src = Source(0);
  auto m = std::make_shared<MapPartitionsRdd>(1, "m", src, AddOne());
  auto run = [&](StageOutputKind output, bool keep_records) {
    TaskComputeSpec spec;
    spec.output_rdd = m.get();
    spec.partition = 0;
    spec.start.rdd = src.get();
    spec.start.partition = 0;
    spec.start.chunks = {
        MakeRecords({{"a", std::int64_t{1}}, {"bb", std::int64_t{2}}}),
        MakeRecords({{"ccc", std::int64_t{3}}})};
    spec.output = output;
    spec.keep_records = keep_records;
    return ComputeTask(std::move(spec));
  };
  for (const StageOutputKind output :
       {StageOutputKind::kResult, StageOutputKind::kTransferProduce}) {
    const TaskComputeResult kept = run(output, true);
    const TaskComputeResult dropped = run(output, false);
    EXPECT_EQ(KeysAndValues(kept.records),
              (std::vector<std::string>{"(a -> 2)", "(bb -> 3)",
                                        "(ccc -> 4)"}));
    EXPECT_TRUE(dropped.records.empty());
    EXPECT_EQ(dropped.in_records, kept.in_records);
    EXPECT_EQ(dropped.out_records, kept.out_records);
    EXPECT_EQ(dropped.out_records, 3u);
    EXPECT_EQ(dropped.out_bytes, kept.out_bytes);
    EXPECT_GT(dropped.out_bytes, 0);
    EXPECT_EQ(dropped.compressed_bytes, kept.compressed_bytes);
  }
}

TEST(FindEvalCutTest, FindsLeafWithoutCaches) {
  BlockManager blocks(4);
  RddPtr src = Source(0);
  auto m = std::make_shared<MapPartitionsRdd>(1, "m", src, AddOne());
  EvalCut cut = FindEvalCut(*m, 1, blocks);
  EXPECT_EQ(cut.rdd, src.get());
  EXPECT_EQ(cut.partition, 1);
  EXPECT_FALSE(cut.is_cached_cut);
}

TEST(FindEvalCutTest, PrefersHighestCachedCut) {
  BlockManager blocks(4);
  RddPtr src = Source(0);
  auto m1 = std::make_shared<MapPartitionsRdd>(1, "m1", src, AddOne());
  m1->set_cached(true);
  auto m2 = std::make_shared<MapPartitionsRdd>(2, "m2", m1, AddOne());
  m2->set_cached(true);
  auto m3 = std::make_shared<MapPartitionsRdd>(3, "m3", m2, AddOne());

  // Only m1 cached -> cut at m1.
  blocks.Put(0, BlockId::Cached(1, 0), MakeRecords({{"k", std::int64_t{1}}}));
  EvalCut cut = FindEvalCut(*m3, 0, blocks);
  EXPECT_EQ(cut.rdd, m1.get());
  EXPECT_TRUE(cut.is_cached_cut);

  // m2 also cached -> the higher cut wins.
  blocks.Put(0, BlockId::Cached(2, 0), MakeRecords({{"k", std::int64_t{2}}}));
  cut = FindEvalCut(*m3, 0, blocks);
  EXPECT_EQ(cut.rdd, m2.get());
}

TEST(FindEvalCutTest, CacheIsPerPartition) {
  BlockManager blocks(4);
  RddPtr src = Source(0);
  auto m1 = std::make_shared<MapPartitionsRdd>(1, "m1", src, AddOne());
  m1->set_cached(true);
  blocks.Put(0, BlockId::Cached(1, 0), MakeRecords({{"k", std::int64_t{1}}}));
  // Partition 1 has no cached block -> falls through to the source.
  EvalCut cut = FindEvalCut(*m1, 1, blocks);
  EXPECT_EQ(cut.rdd, src.get());
  EXPECT_FALSE(cut.is_cached_cut);
}

}  // namespace
}  // namespace gs

#include "rdd/rdd.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gs {
namespace {

RddPtr Source2(RddId id = 0) {
  std::vector<SourceRdd::Partition> parts(2);
  parts[0].records = MakeRecords({{"a", std::int64_t{1}}});
  parts[0].node = 3;
  parts[0].bytes = 100;
  parts[1].records = MakeRecords({{"b", std::int64_t{2}}});
  parts[1].node = 7;
  parts[1].bytes = 200;
  return std::make_shared<SourceRdd>(id, "src", std::move(parts));
}

ShuffleInfo BasicShuffle(ShuffleId id, int shards) {
  ShuffleInfo info;
  info.id = id;
  info.partitioner = std::make_shared<HashPartitioner>(shards);
  return info;
}

TEST(SourceRddTest, PartitionsAndLocations) {
  RddPtr src = Source2();
  EXPECT_EQ(src->num_partitions(), 2);
  EXPECT_EQ(src->kind(), RddKind::kSource);
  const auto& s = static_cast<const SourceRdd&>(*src);
  EXPECT_EQ(s.partition(0).node, 3);
  EXPECT_EQ(s.partition(1).node, 7);
  EXPECT_EQ(s.total_bytes(), 300);
}

TEST(MapPartitionsRddTest, KeepsPartitioningAndParent) {
  RddPtr src = Source2();
  auto mapped = std::make_shared<MapPartitionsRdd>(
      1, "map", src, [](int, const std::vector<Record>& in) { return in; });
  EXPECT_EQ(mapped->num_partitions(), 2);
  EXPECT_EQ(mapped->parents().size(), 1u);
  EXPECT_EQ(mapped->parent().get(), src.get());
}

TEST(UnionRddTest, ResolvesPartitionsAcrossParents) {
  RddPtr a = Source2(0);
  RddPtr b = Source2(1);
  auto u = std::make_shared<UnionRdd>(2, "u", std::vector<RddPtr>{a, b});
  EXPECT_EQ(u->num_partitions(), 4);
  EXPECT_EQ(u->Resolve(0), (std::pair<int, int>{0, 0}));
  EXPECT_EQ(u->Resolve(1), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(u->Resolve(2), (std::pair<int, int>{1, 0}));
  EXPECT_EQ(u->Resolve(3), (std::pair<int, int>{1, 1}));
}

TEST(UnionRddTest, OutOfRangeResolveThrows) {
  auto u = std::make_shared<UnionRdd>(2, "u",
                                      std::vector<RddPtr>{Source2()});
  EXPECT_THROW(u->Resolve(2), CheckFailure);
}

TEST(ShuffledRddTest, PartitionCountFollowsPartitioner) {
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source2(),
                                         BasicShuffle(0, 5));
  EXPECT_EQ(s->num_partitions(), 5);
  EXPECT_EQ(s->shuffle().id, 0);
}

TEST(ShuffledRddTest, ProcessShardCombines) {
  ShuffleInfo info = BasicShuffle(0, 2);
  info.combine = SumInt64();
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source2(), info);
  auto out = s->ProcessShard({MakeRecords({{"x", std::int64_t{1}},
                                           {"y", std::int64_t{5}},
                                           {"x", std::int64_t{2}}})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(out[0].value), 3);
}

TEST(ShuffledRddTest, ProcessShardGroups) {
  ShuffleInfo info = BasicShuffle(0, 2);
  info.group_values = true;
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source2(), info);
  auto out = s->ProcessShard({MakeRecords({{"x", std::string("1")},
                                           {"y", std::string("2")},
                                           {"x", std::string("3")}})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(std::get<std::vector<std::string>>(out[0].value),
            (std::vector<std::string>{"1", "3"}));
}

TEST(ShuffledRddTest, ProcessShardSorts) {
  ShuffleInfo info = BasicShuffle(0, 2);
  info.sort_by_key = true;
  auto s = std::make_shared<ShuffledRdd>(1, "s", Source2(), info);
  auto out = s->ProcessShard({MakeRecords({{"c", std::monostate{}},
                                           {"a", std::monostate{}},
                                           {"b", std::monostate{}}})});
  EXPECT_EQ(out[0].key, "a");
  EXPECT_EQ(out[1].key, "b");
  EXPECT_EQ(out[2].key, "c");
}

TEST(ShuffledRddTest, GroupAndCombineAreExclusive) {
  ShuffleInfo info = BasicShuffle(0, 2);
  info.group_values = true;
  info.combine = SumInt64();
  EXPECT_THROW(ShuffledRdd(1, "s", Source2(), info), CheckFailure);
}

TEST(TransferredRddTest, OneToOneWithParent) {
  auto t = std::make_shared<TransferredRdd>(1, "t", Source2(), 2);
  EXPECT_EQ(t->num_partitions(), 2);
  EXPECT_EQ(t->target_dc(), 2);
  auto auto_t = std::make_shared<TransferredRdd>(2, "t", Source2(), kNoDc);
  EXPECT_EQ(auto_t->target_dc(), kNoDc);
}

TEST(RddTest, CachedFlag) {
  RddPtr src = Source2();
  EXPECT_FALSE(src->cached());
  src->set_cached(true);
  EXPECT_TRUE(src->cached());
}

TEST(RecordFnTest, MapFilterFlatMapHelpers) {
  std::vector<Record> in{{"a", std::int64_t{1}}, {"b", std::int64_t{2}}};
  auto doubled = RecordMapFn([](const Record& r) {
    return Record{r.key, std::get<std::int64_t>(r.value) * 2};
  })(0, in);
  EXPECT_EQ(std::get<std::int64_t>(doubled[1].value), 4);

  auto only_a = RecordFilterFn([](const Record& r) {
    return r.key == "a";
  })(0, in);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].key, "a");

  auto exploded = RecordFlatMapFn([](const Record& r) {
    return std::vector<Record>{r, r};
  })(0, in);
  EXPECT_EQ(exploded.size(), 4u);
}

}  // namespace
}  // namespace gs

#include "workloads/input_gen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/hash.h"

namespace gs {
namespace {

std::uint64_t Digest(const std::vector<Record>& records) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Record& r : records) h = Fnv1a64(ToString(r), h);
  return h;
}

RunConfig PoolConfig(int threads) {
  RunConfig cfg;
  cfg.compute_threads = threads;
  return cfg;
}

TEST(InputGenTest, DefaultWeightsSkewToIngestRegion) {
  auto w = DefaultDcWeights(6);
  ASSERT_EQ(w.size(), 6u);
  EXPECT_DOUBLE_EQ(w[0], 0.4);
  double sum = 0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_DOUBLE_EQ(w[i], 0.12);
}

TEST(InputGenTest, SingleDcWeightIsOne) {
  EXPECT_EQ(DefaultDcWeights(1), std::vector<double>{1.0});
}

TEST(InputGenTest, PlacePartitionsFollowsWeights) {
  Topology topo = Ec2SixRegionTopology();
  std::vector<std::vector<Record>> parts(48);
  for (auto& p : parts) p.push_back({"k", std::int64_t{1}});
  auto placed = PlacePartitions(topo, std::move(parts), DefaultDcWeights(6));
  ASSERT_EQ(placed.size(), 48u);
  std::vector<int> per_dc(6, 0);
  for (const auto& p : placed) {
    EXPECT_TRUE(topo.node(p.node).worker);
    ++per_dc[topo.dc_of(p.node)];
  }
  EXPECT_EQ(per_dc[0], 19);  // 40% of 48, largest remainder
  for (int dc = 1; dc < 6; ++dc) {
    EXPECT_GE(per_dc[dc], 5);
    EXPECT_LE(per_dc[dc], 6);
  }
}

TEST(InputGenTest, PlacePartitionsRoundRobinsWithinDc) {
  Topology topo = Ec2SixRegionTopology();
  std::vector<std::vector<Record>> parts(48);
  for (auto& p : parts) p.push_back({"k", std::int64_t{1}});
  auto placed = PlacePartitions(topo, std::move(parts), DefaultDcWeights(6));
  std::set<NodeIndex> used;
  for (const auto& p : placed) used.insert(p.node);
  EXPECT_EQ(used.size(), 24u) << "every worker should host input";
}

TEST(InputGenTest, VocabularyIsUniqueAndDeterministic) {
  // The workloads' vocabulary sizes. Before collisions were redrawn, 20 of
  // these seeds at size 5000 and 8 at size 3000 gave duplicate words.
  for (std::size_t size : {800u, 1000u, 3000u, 5000u}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Rng a(seed), b(seed);
      auto va = MakeVocabulary(size, a);
      ASSERT_EQ(va, MakeVocabulary(size, b)) << size << " seed " << seed;
      ASSERT_EQ(va.size(), size);
      std::set<std::string> unique(va.begin(), va.end());
      ASSERT_EQ(unique.size(), size) << size << " seed " << seed;
    }
  }
}

TEST(InputGenTest, TextLinesHitByteTarget) {
  Rng rng(4);
  auto vocab = MakeVocabulary(500, rng);
  ZipfSampler zipf(vocab.size(), 1.1);
  auto lines = MakeTextLines(KiB(100), 20, vocab, zipf, rng);
  Bytes total = SerializedSize(lines);
  EXPECT_GE(total, KiB(100));
  EXPECT_LT(total, KiB(105));  // overshoot bounded by one line
}

TEST(InputGenTest, KeyValueRecordsShape) {
  Rng rng(5);
  auto records = MakeKeyValueRecords(100, 90, rng, kHexAlphabet, nullptr);
  ASSERT_EQ(records.size(), 100u);
  for (const Record& r : records) {
    EXPECT_EQ(r.key.size(), 10u);
    for (char c : r.key) {
      EXPECT_NE(std::string(kHexAlphabet).find(c), std::string::npos);
    }
    EXPECT_EQ(std::get<std::string>(r.value).size(), 90u);
  }
}

TEST(InputGenTest, KeyValueRecordsStreamIsPinned) {
  // simcheck's Sort-shaped configurations draw their records through this
  // call; the digest was recorded before UniformInt moved inline and values
  // were filled in place, and must never change.
  Rng rng(5);
  auto records = MakeKeyValueRecords(1000, 16, rng, kHexAlphabet, nullptr);
  EXPECT_EQ(Digest(records), 0x9de25ce3ccac8e73ull);
}

TEST(InputGenTest, TextValuesUseVocabulary) {
  Rng rng(6);
  auto vocab = MakeVocabulary(50, rng);
  auto records = MakeKeyValueRecords(20, 60, rng, kHexAlphabet, &vocab);
  for (const Record& r : records) {
    EXPECT_EQ(std::get<std::string>(r.value).size(), 60u);
  }
}

TEST(InputGenTest, UniformBoundariesSortedAndSized) {
  auto b = UniformBoundaries(8, kHexAlphabet);
  EXPECT_EQ(b.size(), 7u);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
  auto p = UniformBoundaries(8, kPrintableAlphabet);
  EXPECT_TRUE(std::is_sorted(p.begin(), p.end()));
  EXPECT_TRUE(UniformBoundaries(1, kHexAlphabet).empty());
}

TEST(InputGenTest, BoundariesBalanceUniformKeys) {
  Rng rng(7);
  auto records = MakeKeyValueRecords(8000, 10, rng, kHexAlphabet, nullptr);
  RangePartitioner part(UniformBoundaries(8, kHexAlphabet));
  std::vector<int> counts(8, 0);
  for (const Record& r : records) ++counts[part.ShardOf(r.key)];
  for (int c : counts) {
    EXPECT_GT(c, 600);
    EXPECT_LT(c, 1500);
  }
}

TEST(InputGenTest, WebGraphShape) {
  Rng rng(8);
  auto pages = MakeWebGraph(500, 12.0, rng);
  ASSERT_EQ(pages.size(), 500u);
  double total_degree = 0;
  for (const Record& p : pages) {
    const auto& links = std::get<std::vector<std::string>>(p.value);
    EXPECT_GE(links.size(), 1u);
    total_degree += static_cast<double>(links.size());
    for (const auto& l : links) {
      EXPECT_EQ(l[0], 'p');
      EXPECT_NE(l, p.key) << "no self-links";
    }
  }
  EXPECT_NEAR(total_degree / 500.0, 12.0, 6.0);
}

TEST(InputGenTest, WebGraphRangeKeepsPageIdsAndTargets) {
  Rng rng(8);
  auto pages = MakeWebGraph(500, 120, 180, 12.0, rng);
  ASSERT_EQ(pages.size(), 60u);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i].key, "p" + std::to_string(120 + i));
    for (const auto& l : std::get<std::vector<std::string>>(pages[i].value)) {
      const int target = std::stoi(l.substr(1));
      EXPECT_GE(target, 0);
      EXPECT_LT(target, 500);
      EXPECT_NE(l, pages[i].key) << "no self-links";
    }
  }
  EXPECT_TRUE(MakeWebGraph(500, 7, 7, 12.0, rng).empty());
  EXPECT_THROW(MakeWebGraph(500, 10, 501, 12.0, rng), CheckFailure);
}

TEST(InputGenTest, PartitionRangeMatchesCeilingChunks) {
  // ceil(10 / 4) = 3: 3, 3, 3, 1.
  EXPECT_EQ(PartitionRange(10, 4, 0).begin, 0u);
  EXPECT_EQ(PartitionRange(10, 4, 2).begin, 6u);
  EXPECT_EQ(PartitionRange(10, 4, 2).size(), 3u);
  EXPECT_EQ(PartitionRange(10, 4, 3).begin, 9u);
  EXPECT_EQ(PartitionRange(10, 4, 3).size(), 1u);
  // ceil(5 / 4) = 2: 2, 2, 1, 0.
  EXPECT_EQ(PartitionRange(5, 4, 2).size(), 1u);
  EXPECT_EQ(PartitionRange(5, 4, 3).size(), 0u);
  EXPECT_EQ(PartitionRange(5, 4, 3).begin, 5u);
  EXPECT_THROW(PartitionRange(5, 4, 4), CheckFailure);
}

TEST(InputGenTest, GeneratePartitionsIsIndependentOfPoolWidth) {
  auto generate = [](int threads) {
    GeoCluster cluster(Ec2SixRegionTopology(), PoolConfig(threads));
    Rng rng(11);
    return GeneratePartitions(cluster, rng, 16, [](int p, Rng& part_rng) {
      return MakeKeyValueRecords(static_cast<std::size_t>(50 + p), 20,
                                 part_rng, kPrintableAlphabet, nullptr);
    });
  };
  const auto one = generate(1);
  ASSERT_EQ(one.size(), 16u);
  for (int p = 0; p < 16; ++p) EXPECT_EQ(one[p].size(), 50u + p);
  EXPECT_EQ(one, generate(4));
  EXPECT_EQ(one, generate(4));
  // Partition p draws from rng.Split(p), split in partition order.
  Rng rng(11);
  for (int p = 0; p < 16; ++p) {
    Rng part_rng = rng.Split(static_cast<std::uint64_t>(p));
    EXPECT_EQ(one[p], MakeKeyValueRecords(static_cast<std::size_t>(50 + p),
                                          20, part_rng, kPrintableAlphabet,
                                          nullptr));
  }
}

TEST(InputGenTest, GeneratePartitionsRethrowsAfterAllJobsFinish) {
  GeoCluster cluster(Ec2SixRegionTopology(), PoolConfig(4));
  Rng rng(12);
  std::atomic<int> ran{0};
  EXPECT_THROW(GeneratePartitions(cluster, rng, 8,
                                  [&ran](int p, Rng&) {
                                    ++ran;
                                    GS_CHECK(p != 3);
                                    return std::vector<Record>{};
                                  }),
               CheckFailure);
  EXPECT_EQ(ran.load(), 8);
}

TEST(InputGenTest, LabelledDocsUseAllClasses) {
  Rng rng(9);
  auto vocab = MakeVocabulary(300, rng);
  ZipfSampler zipf(vocab.size(), 1.1);
  auto docs = MakeLabelledDocs(1000, 20, 50, vocab, zipf, rng);
  std::set<std::string> classes;
  for (const Record& d : docs) {
    EXPECT_EQ(d.key.substr(0, 5), "class");
    classes.insert(d.key);
  }
  EXPECT_EQ(classes.size(), 20u);
}

TEST(InputGenTest, GeneratorsAreSchemeIndependent) {
  // Two generators with the same seed produce identical data regardless of
  // any other state — the foundation of cross-scheme comparisons.
  auto gen = [] {
    Rng rng(77);
    return MakeKeyValueRecords(200, 30, rng, kPrintableAlphabet, nullptr);
  };
  EXPECT_EQ(gen(), gen());
}

}  // namespace
}  // namespace gs

#include "data/combiner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "common/check.h"
#include "common/rng.h"

namespace gs {
namespace {

// Runs CombineByKey over `in` as one two-record batch and returns the
// single combined value.
Value CombineTwo(const Combiner& c, Value a, Value b) {
  std::vector<Record> in{{"k", std::move(a)}, {"k", std::move(b)}};
  std::vector<Record> out = CombineByKey(in, c);
  EXPECT_EQ(out.size(), 1u);
  return out.front().value;
}

TEST(CombinerTest, SumInt64MergesEqualKeys) {
  std::vector<Record> in{{"a", std::int64_t{1}},
                         {"b", std::int64_t{10}},
                         {"a", std::int64_t{2}},
                         {"a", std::int64_t{3}}};
  auto out = CombineByKey(in, SumInt64());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "a");  // first-appearance order
  EXPECT_EQ(std::get<std::int64_t>(out[0].value), 6);
  EXPECT_EQ(out[1].key, "b");
  EXPECT_EQ(std::get<std::int64_t>(out[1].value), 10);
}

TEST(CombinerTest, EmptyInput) {
  EXPECT_TRUE(CombineByKey(std::vector<Record>{}, SumInt64()).empty());
}

TEST(CombinerTest, NoDuplicatesIsIdentity) {
  std::vector<Record> in{{"x", std::int64_t{1}}, {"y", std::int64_t{2}}};
  EXPECT_EQ(CombineByKey(in, SumInt64()), in);
}

TEST(CombinerTest, SumDouble) {
  std::vector<Record> in{{"a", 1.5}, {"a", 2.25}};
  auto out = CombineByKey(in, SumDouble());
  EXPECT_DOUBLE_EQ(std::get<double>(out[0].value), 3.75);
}

TEST(CombinerTest, MergeTermWeightsUnionsAndSums) {
  Value a = std::vector<TermWeight>{{"x", 1.0}, {"y", 2.0}};
  Value b = std::vector<TermWeight>{{"y", 3.0}, {"z", 4.0}};
  auto merged =
      std::get<std::vector<TermWeight>>(CombineTwo(MergeTermWeights(), a, b));
  std::map<std::string, double> m(merged.begin(), merged.end());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m["x"], 1.0);
  EXPECT_DOUBLE_EQ(m["y"], 5.0);
  EXPECT_DOUBLE_EQ(m["z"], 4.0);
}

TEST(CombinerTest, MergeTermWeightsOutputIsSorted) {
  Value a = std::vector<TermWeight>{{"zz", 1.0}};
  Value b = std::vector<TermWeight>{{"aa", 1.0}};
  auto merged =
      std::get<std::vector<TermWeight>>(CombineTwo(MergeTermWeights(), a, b));
  EXPECT_EQ(merged[0].first, "aa");
  EXPECT_EQ(merged[1].first, "zz");
}

TEST(CombinerTest, ConcatStrings) {
  Value a = std::string("foo");
  Value b = std::string("bar");
  EXPECT_EQ(std::get<std::string>(CombineTwo(ConcatStrings(), a, b)),
            "foobar");
  EXPECT_EQ(std::get<std::string>(CombineTwo(ConcatStrings(','), a, b)),
            "foo,bar");
}

TEST(CombinerTest, EmptyCombinerThrows) {
  EXPECT_FALSE(Combiner{});
  EXPECT_THROW(
      CombineByKey(std::vector<Record>{{"a", std::int64_t{1}}}, Combiner{}),
      CheckFailure);
  Value acc = std::int64_t{1};
  EXPECT_THROW(Combiner{}.Merge(acc, Value{std::int64_t{2}}), CheckFailure);
}

// A key seen once is returned exactly as it arrived, even when its value
// is an unsorted term vector with a duplicate term: the finish step runs
// only on keys that merged.
TEST(CombinerTest, KeySeenOnceIsLeftAsItArrived) {
  const std::vector<Record> in{
      {"once", std::vector<TermWeight>{{"b", 1.0}, {"a", 2.0}, {"b", 3.0}}},
      {"twice", std::vector<TermWeight>{{"b", 1.0}}},
      {"twice", std::vector<TermWeight>{{"a", 1.0}}}};
  const std::vector<Record> out = CombineByKey(in, MergeTermWeights());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], in[0]);
  EXPECT_EQ(out[1].value,
            Value(std::vector<TermWeight>{{"a", 1.0}, {"b", 1.0}}));
}

// Thousands of merges into one accumulator keep it bounded by its distinct
// terms plus a short tail: the tail is folded into the sorted prefix
// before the vector grows.
TEST(CombinerTest, MergeTermWeightsAccumulatorStaysBounded) {
  const Combiner c = MergeTermWeights();
  Value acc = std::vector<TermWeight>{{"a", 1.0}};
  const Value contribution = std::vector<TermWeight>{{"b", 1.0}, {"a", 1.0}};
  for (int i = 0; i < 10000; ++i) {
    c.Merge(acc, contribution);
    EXPECT_LE(std::get<std::vector<TermWeight>>(acc).capacity(), 32u);
  }
  c.Finish(acc);
  EXPECT_EQ(acc, Value(std::vector<TermWeight>{{"a", 10001.0},
                                               {"b", 10000.0}}));
  EXPECT_EQ(std::get<std::vector<TermWeight>>(acc).capacity(), 2u);
}

// ---- Bit-exact equivalence with a pairwise fold ----------------------------

using Fold = std::function<Value(const Value&, const Value&)>;

// The pairwise sort-merge that MergeTermWeights computed before it became
// an accumulator: both sides stably sorted by term, then each term's run
// summed left to right, `a`'s occurrences before `b`'s.
const std::vector<TermWeight>& SortedByTerm(const std::vector<TermWeight>& v,
                                            std::vector<TermWeight>& scratch) {
  const auto term_less = [](const TermWeight& a, const TermWeight& b) {
    return a.first < b.first;
  };
  if (std::is_sorted(v.begin(), v.end(), term_less)) return v;
  scratch = v;
  std::stable_sort(scratch.begin(), scratch.end(), term_less);
  return scratch;
}

void AccumulateRun(const std::vector<TermWeight>& v, std::size_t& i,
                   const std::string& term, double& acc, bool& started) {
  while (i < v.size() && v[i].first == term) {
    if (!started) {
      acc = v[i].second;
      started = true;
    } else {
      acc += v[i].second;
    }
    ++i;
  }
}

Value FoldTermWeights(const Value& a, const Value& b) {
  std::vector<TermWeight> scratch_a, scratch_b;
  const std::vector<TermWeight>& va =
      SortedByTerm(std::get<std::vector<TermWeight>>(a), scratch_a);
  const std::vector<TermWeight>& vb =
      SortedByTerm(std::get<std::vector<TermWeight>>(b), scratch_b);
  std::vector<TermWeight> out;
  out.reserve(va.size() + vb.size());
  std::size_t i = 0, j = 0;
  while (i < va.size() || j < vb.size()) {
    const std::string* term;
    if (j >= vb.size() || (i < va.size() && va[i].first <= vb[j].first)) {
      term = &va[i].first;
    } else {
      term = &vb[j].first;
    }
    double acc = 0;
    bool started = false;
    const std::string key = *term;
    AccumulateRun(va, i, key, acc, started);
    AccumulateRun(vb, j, key, acc, started);
    out.emplace_back(key, acc);
  }
  return out;
}

// CombineByKey as a fold: first-appearance key order, each later value
// folded into the key's running value.
std::vector<Record> ReferenceCombine(const std::vector<Record>& records,
                                     const Fold& fold) {
  std::vector<Record> out;
  std::map<std::string, std::size_t> slot;
  for (const Record& r : records) {
    auto [it, inserted] = slot.emplace(r.key, out.size());
    if (inserted) {
      out.push_back(r);
    } else {
      Value& v = out[it->second].value;
      v = fold(v, r.value);
    }
  }
  return out;
}

// Equality down to the bits of every double (so -0.0 != +0.0).
void ExpectBitIdentical(const std::vector<Record>& got,
                        const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "at " << i;
    ASSERT_EQ(got[i].value.index(), want[i].value.index()) << got[i].key;
    if (const auto* d = std::get_if<double>(&want[i].value)) {
      EXPECT_TRUE(same_bits(std::get<double>(got[i].value), *d))
          << ToString(got[i]) << " vs " << ToString(want[i]);
    } else if (const auto* w =
                   std::get_if<std::vector<TermWeight>>(&want[i].value)) {
      const auto& g = std::get<std::vector<TermWeight>>(got[i].value);
      ASSERT_EQ(g.size(), w->size()) << got[i].key;
      for (std::size_t t = 0; t < g.size(); ++t) {
        EXPECT_EQ(g[t].first, (*w)[t].first) << got[i].key;
        EXPECT_TRUE(same_bits(g[t].second, (*w)[t].second))
            << got[i].key << " term " << g[t].first << ": " << g[t].second
            << " vs " << (*w)[t].second;
      }
    } else {
      EXPECT_EQ(got[i].value, want[i].value) << got[i].key;
    }
  }
}

// Splits `records` into 1-4 contiguous chunks at random points.
std::vector<RecordsPtr> SplitIntoChunks(const std::vector<Record>& records,
                                        Rng& rng) {
  const auto pieces = static_cast<std::size_t>(rng.UniformInt(1, 4));
  std::vector<std::size_t> cuts{0, records.size()};
  for (std::size_t i = 1; i < pieces; ++i) {
    cuts.push_back(static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(records.size()))));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<RecordsPtr> chunks;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    chunks.push_back(std::make_shared<const std::vector<Record>>(
        records.begin() + static_cast<std::ptrdiff_t>(cuts[i]),
        records.begin() + static_cast<std::ptrdiff_t>(cuts[i + 1])));
  }
  return chunks;
}

// Every entry point — copying, moving, chunked, and Merge/Finish by hand —
// must equal the reference fold bit for bit.
void ExpectMatchesFold(const std::vector<Record>& in, const Combiner& c,
                       const Fold& fold, Rng& rng) {
  const std::vector<Record> want = ReferenceCombine(in, fold);
  SCOPED_TRACE(::testing::Message() << in.size() << " records");
  ExpectBitIdentical(CombineByKey(in, c), want);
  std::vector<Record> owned = in;
  ExpectBitIdentical(CombineByKey(std::move(owned), c), want);
  ExpectBitIdentical(CombineByKey(SplitIntoChunks(in, rng), c), want);

  std::vector<Record> by_hand;
  std::map<std::string, std::size_t> slot;
  std::vector<bool> merged;
  for (const Record& r : in) {
    auto [it, inserted] = slot.emplace(r.key, by_hand.size());
    if (inserted) {
      by_hand.push_back(r);
      merged.push_back(false);
    } else {
      c.Merge(by_hand[it->second].value, Value(r.value));  // moving Merge
      merged[it->second] = true;
    }
  }
  for (std::size_t i = 0; i < by_hand.size(); ++i) {
    if (merged[i]) c.Finish(by_hand[i].value);
  }
  ExpectBitIdentical(by_hand, want);
}

// Weights of widely different magnitudes and both zeros, so any change in
// summation order shows in the low bits (or the sign of a zero).
double RandomWeight(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return rng.Uniform(-1e16, 1e16);
    case 3:
      return rng.Uniform(-1.0, 1.0) * 1e-3;
    default:
      return rng.Uniform(-100.0, 100.0);
  }
}

std::vector<TermWeight> RandomTerms(Rng& rng, int max_entries) {
  std::vector<TermWeight> v;
  const std::int64_t n = rng.UniformInt(1, max_entries);
  for (std::int64_t i = 0; i < n; ++i) {
    v.emplace_back("t" + std::to_string(rng.UniformInt(0, 24)),
                   RandomWeight(rng));
  }
  // Most values arrive sorted, as merge outputs and vectorized documents
  // do; the rest keep their random order and duplicate terms.
  if (rng.Bernoulli(0.6)) {
    std::stable_sort(v.begin(), v.end(),
                     [](const TermWeight& a, const TermWeight& b) {
                       return a.first < b.first;
                     });
  }
  return v;
}

class CombinerFoldTest : public ::testing::TestWithParam<int> {};

TEST_P(CombinerFoldTest, MergeTermWeightsIsBitIdenticalToPairwiseFold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  std::vector<Record> in;
  // Ordinary keys, a few seen once.
  const std::int64_t n = rng.UniformInt(0, 300);
  for (std::int64_t i = 0; i < n; ++i) {
    in.push_back({"k" + std::to_string(rng.UniformInt(0, 40)),
                  RandomTerms(rng, 6)});
  }
  // One long run per seed: hundreds of merges into a key, enough to make
  // the accumulator fold its tail into its sorted prefix many times.
  const std::int64_t long_run = rng.UniformInt(100, 600);
  for (std::int64_t i = 0; i < long_run; ++i) {
    in.insert(in.begin() + rng.UniformInt(0, static_cast<std::int64_t>(
                                                 in.size())),
              Record{"hot", RandomTerms(rng, 3)});
  }
  ExpectMatchesFold(in, MergeTermWeights(), FoldTermWeights, rng);
}

TEST_P(CombinerFoldTest, SumsAndConcatAreIdenticalToPairwiseFold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  std::vector<Record> ints, doubles, strings;
  const std::int64_t n = rng.UniformInt(0, 400);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::string key = "k" + std::to_string(rng.UniformInt(0, 30));
    ints.push_back({key, rng.UniformInt(-1000000, 1000000)});
    doubles.push_back({key, RandomWeight(rng)});
    const auto length = static_cast<std::size_t>(rng.UniformInt(0, 3));
    const auto letter = static_cast<char>('a' + rng.UniformInt(0, 25));
    strings.push_back({key, std::string(length, letter)});
  }
  ExpectMatchesFold(ints, SumInt64(), [](const Value& a, const Value& b) {
    return Value(std::get<std::int64_t>(a) + std::get<std::int64_t>(b));
  }, rng);
  ExpectMatchesFold(doubles, SumDouble(), [](const Value& a, const Value& b) {
    return Value(std::get<double>(a) + std::get<double>(b));
  }, rng);
  for (char sep : {'\0', ','}) {
    ExpectMatchesFold(strings, ConcatStrings(sep),
                      [sep](const Value& a, const Value& b) {
                        std::string out = std::get<std::string>(a);
                        if (sep != '\0') out.push_back(sep);
                        out += std::get<std::string>(b);
                        return Value(std::move(out));
                      },
                      rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinerFoldTest, ::testing::Range(1, 21));

class CombinerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CombinerPropertyTest, MatchesReferenceAggregation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Record> in;
  std::map<std::string, std::int64_t> reference;
  const int n = static_cast<int>(rng.UniformInt(0, 500));
  for (int i = 0; i < n; ++i) {
    std::string key = "k" + std::to_string(rng.UniformInt(0, 40));
    std::int64_t v = rng.UniformInt(-100, 100);
    in.push_back({key, v});
    reference[key] += v;
  }
  auto out = CombineByKey(in, SumInt64());
  EXPECT_EQ(out.size(), reference.size());
  for (const Record& r : out) {
    EXPECT_EQ(std::get<std::int64_t>(r.value), reference[r.key]) << r.key;
  }
}

TEST_P(CombinerPropertyTest, CombineTwiceEqualsCombineOnce) {
  // Idempotence of a second pass: combining an already-combined batch
  // changes nothing (keys are unique).
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  std::vector<Record> in;
  for (int i = 0; i < 300; ++i) {
    in.push_back({"k" + std::to_string(rng.UniformInt(0, 30)),
                  rng.UniformInt(0, 10)});
  }
  auto once = CombineByKey(in, SumInt64());
  auto twice = CombineByKey(once, SumInt64());
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombinerPropertyTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace gs

#include "data/combiner.h"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace gs {
namespace {

using Terms = std::vector<TermWeight>;

bool TermLess(const TermWeight& a, const TermWeight& b) {
  return a.first < b.first;
}

// Walks the sorted ranges [0, mid) and [mid, size) of `v` as one merge
// and calls emit(first, sum) once per term, in term order: `first` indexes
// the term's first entry, `sum` adds the term's weights left to right,
// the first range's before the second's. This is the pairwise sort-merge
// fold's order, so a prefix holding earlier entries and a stably sorted
// tail of later ones give each term the sum the fold gives, bit for bit.
template <typename Emit>
void MergeRuns(const Terms& v, std::size_t mid, Emit emit) {
  std::size_t i = 0, j = mid;
  while (i < mid || j < v.size()) {
    const std::size_t first =
        j == v.size() || (i < mid && !TermLess(v[j], v[i])) ? i : j;
    double sum = v[first].second;
    const auto run = [&](std::size_t& k, std::size_t end) {
      for (; k < end && v[k].first == v[first].first; ++k) {
        if (k != first) sum += v[k].second;
      }
    };
    run(i, mid);
    run(j, v.size());
    emit(first, sum);
  }
}

// Folds the tail of `v` (the entries after its sorted prefix) into the
// prefix: the tail is sorted stably, then both are merged with each term's
// run summed (MergeRuns) into a fresh vector holding one entry per term,
// with capacity(distinct terms) room.
template <typename Capacity>
void CompactTerms(Terms& v, Capacity capacity) {
  const auto mid = static_cast<std::size_t>(
      std::is_sorted_until(v.begin(), v.end(), TermLess) - v.begin());
  const auto tail = v.begin() + static_cast<std::ptrdiff_t>(mid);
  if (!std::is_sorted(tail, v.end(), TermLess)) {
    std::stable_sort(tail, v.end(), TermLess);
  }
  std::size_t distinct = 0;
  MergeRuns(v, mid, [&](std::size_t, double) { ++distinct; });
  Terms out;
  out.reserve(capacity(distinct));
  MergeRuns(v, mid, [&](std::size_t first, double sum) {
    out.emplace_back(std::move(v[first].first), sum);
  });
  v.swap(out);
}

// Appends `v`'s entries to the accumulator. A full accumulator folds its
// tail into the sorted prefix before it grows, and then keeps room for a
// tail at least as long as the prefix (and at least kMinTail): it holds
// its distinct terms plus a bounded tail (NaiveBayes merges many
// documents into each of its 100 class keys), and folding stays
// amortized over many appends.
template <typename V>
void AppendTerms(Terms& acc, V&& v) {
  constexpr std::size_t kMinTail = 16;
  if (acc.size() + v.size() > acc.capacity()) {
    CompactTerms(acc, [&](std::size_t distinct) {
      return distinct + std::max(distinct, kMinTail) + v.size();
    });
  }
  if constexpr (std::is_rvalue_reference_v<V&&>) {
    acc.insert(acc.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  } else {
    acc.insert(acc.end(), v.begin(), v.end());
  }
}

// One typed merge per combiner kind. kFinishes marks the kinds whose
// accumulators need a finish step.
struct SumInt64Ops {
  static constexpr bool kFinishes = false;
  void Merge(Value& acc, const Value& v) const {
    std::get<std::int64_t>(acc) += std::get<std::int64_t>(v);
  }
  void Finish(Value&) const {}
};

struct SumDoubleOps {
  static constexpr bool kFinishes = false;
  void Merge(Value& acc, const Value& v) const {
    std::get<double>(acc) += std::get<double>(v);
  }
  void Finish(Value&) const {}
};

struct MergeTermsOps {
  static constexpr bool kFinishes = true;
  void Merge(Value& acc, const Value& v) const {
    AppendTerms(std::get<Terms>(acc), std::get<Terms>(v));
  }
  void Merge(Value& acc, Value&& v) const {
    AppendTerms(std::get<Terms>(acc), std::get<Terms>(std::move(v)));
  }
  // The finished vector has no spare room: it is kept as shuffle output
  // or cached state, so slack there would stay resident.
  void Finish(Value& acc) const {
    CompactTerms(std::get<Terms>(acc),
                 [](std::size_t distinct) { return distinct; });
  }
};

struct ConcatStringsOps {
  static constexpr bool kFinishes = false;
  char separator;
  void Merge(Value& acc, const Value& v) const {
    std::string& s = std::get<std::string>(acc);
    if (separator != '\0') s.push_back(separator);
    s += std::get<std::string>(v);
  }
  void Finish(Value&) const {}
};

// Calls `f` with the typed ops of `combiner`'s kind: the one place the
// kind is inspected.
template <typename F>
decltype(auto) WithOps(const Combiner& combiner, F&& f) {
  GS_CHECK_MSG(combiner, "empty Combiner");
  switch (combiner.kind()) {
    case Combiner::Kind::kSumDouble:
      return f(SumDoubleOps{});
    case Combiner::Kind::kMergeTermWeights:
      return f(MergeTermsOps{});
    case Combiner::Kind::kConcatStrings:
      return f(ConcatStringsOps{combiner.separator()});
    case Combiner::Kind::kSumInt64:
    case Combiner::Kind::kNone:
      break;
  }
  return f(SumInt64Ops{});
}

// The record loop of one CombineByKey call, typed for one combiner kind.
template <typename Ops>
class Accumulation {
 public:
  Accumulation(Ops ops, std::size_t expected_records,
               std::vector<std::uint64_t>* key_hashes)
      : ops_(ops), index_(expected_records), key_hashes_(key_hashes) {
    if (key_hashes_) {
      key_hashes_->clear();
      key_hashes_->reserve(expected_records);
    }
  }

  // `r` is a const Record& (its key's first record is copied) or a
  // Record&& (consumed).
  template <typename R>
  void Add(R&& r) {
    const std::uint64_t h = Fnv1a64(r.key);
    const std::size_t slot = index_.FindOrInsert(
        h, out_.size(), [&](std::size_t i) { return out_[i].key == r.key; });
    if (slot == out_.size()) {
      out_.push_back(std::forward<R>(r));
      if constexpr (Ops::kFinishes) merged_.push_back(false);
      if (key_hashes_) key_hashes_->push_back(h);
    } else {
      ops_.Merge(out_[slot].value, std::forward<R>(r).value);
      if constexpr (Ops::kFinishes) merged_[slot] = true;
    }
  }

  std::vector<Record> Take() {
    if constexpr (Ops::kFinishes) {
      for (std::size_t i = 0; i < out_.size(); ++i) {
        if (merged_[i]) ops_.Finish(out_[i].value);
      }
    }
    return std::move(out_);
  }

 private:
  Ops ops_;
  FlatKeyIndex index_;
  std::vector<std::uint64_t>* key_hashes_;
  std::vector<Record> out_;
  std::vector<bool> merged_;  // kFinishes only: key merged at least once
};

}  // namespace

void Combiner::Merge(Value& acc, const Value& v) const {
  WithOps(*this, [&](const auto& ops) { ops.Merge(acc, v); });
}

void Combiner::Merge(Value& acc, Value&& v) const {
  WithOps(*this, [&](const auto& ops) { ops.Merge(acc, std::move(v)); });
}

void Combiner::Finish(Value& acc) const {
  WithOps(*this, [&](const auto& ops) { ops.Finish(acc); });
}

std::vector<Record> CombineByKey(const std::vector<Record>& records,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes) {
  return WithOps(combiner, [&](const auto& ops) {
    Accumulation acc(ops, records.size(), key_hashes);
    for (const Record& r : records) acc.Add(r);
    return acc.Take();
  });
}

std::vector<Record> CombineByKey(std::vector<Record>&& records,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes) {
  return WithOps(combiner, [&](const auto& ops) {
    Accumulation acc(ops, records.size(), key_hashes);
    for (Record& r : records) acc.Add(std::move(r));
    return acc.Take();
  });
}

std::vector<Record> CombineByKey(const std::vector<RecordsPtr>& chunks,
                                 const Combiner& combiner,
                                 std::vector<std::uint64_t>* key_hashes) {
  std::size_t n = 0;
  for (const RecordsPtr& chunk : chunks) n += chunk->size();
  return WithOps(combiner, [&](const auto& ops) {
    Accumulation acc(ops, n, key_hashes);
    for (const RecordsPtr& chunk : chunks) {
      for (const Record& r : *chunk) acc.Add(r);
    }
    return acc.Take();
  });
}

Combiner SumInt64() { return Combiner(Combiner::Kind::kSumInt64, '\0'); }

Combiner SumDouble() { return Combiner(Combiner::Kind::kSumDouble, '\0'); }

Combiner MergeTermWeights() {
  return Combiner(Combiner::Kind::kMergeTermWeights, '\0');
}

Combiner ConcatStrings(char separator) {
  return Combiner(Combiner::Kind::kConcatStrings, separator);
}

}  // namespace gs

#include "exec/evaluator.h"

#include <utility>

#include "common/check.h"

namespace gs {
namespace {

// Records produced at one level of the chain: owned, or a read-only view
// of a boundary chunk that needs no processing. A narrow function reads the
// view in place, so a map over a source partition or a pushed inbox never
// copies its input; only a caller that needs ownership copies.
struct Produced {
  std::vector<Record> owned;
  RecordsPtr view;

  const std::vector<Record>& get() const {
    return view != nullptr ? *view : owned;
  }
  std::vector<Record> Take() {
    return view != nullptr ? *view : std::move(owned);
  }
};

// Recursively evaluates `rdd` partition `p`, bottoming out at `start`.
// Exactly one recursion path reaches `start` (map chains are linear and a
// union resolves to one parent).
Produced Eval(const Rdd& rdd, int p, const EvalStart& start,
              EvalResult& result) {
  if (&rdd == start.rdd) {
    GS_CHECK_MSG(p == start.partition, "boundary partition mismatch: " << p
                                           << " vs " << start.partition);
    if (rdd.kind() == RddKind::kShuffled && !start.already_processed) {
      // The chunks are raw gathered shard records; the reduce side's
      // combine/group/sort reads them (a combine in place).
      return Produced{
          static_cast<const ShuffledRdd&>(rdd).ProcessShard(start.chunks),
          nullptr};
    }
    if (start.chunks.size() == 1) return Produced{{}, start.chunks.front()};
    return Produced{ConcatRecords(start.chunks), nullptr};
  }

  Produced out;
  switch (rdd.kind()) {
    case RddKind::kMapPartitions: {
      const auto& m = static_cast<const MapPartitionsRdd&>(rdd);
      out.owned = m.fn()(p, Eval(*m.parent(), p, start, result).get());
      break;
    }
    case RddKind::kUnion: {
      const auto& u = static_cast<const UnionRdd&>(rdd);
      auto [parent_idx, parent_part] = u.Resolve(p);
      out = Eval(*u.parents()[parent_idx], parent_part, start, result);
      break;
    }
    case RddKind::kSource:
    case RddKind::kShuffled:
    case RddKind::kTransferred:
      GS_CHECK_MSG(false, "reached boundary rdd '" << rdd.name()
                       << "' that is not the evaluation start — the gather "
                          "plan should have provided its records");
      break;
  }

  if (rdd.cached()) {
    result.cache_fills.push_back(EvalResult::CacheFill{
        rdd.id(), p, out.view != nullptr ? out.view : MakeRecords(out.owned)});
  }
  return out;
}

}  // namespace

EvalResult Evaluate(const Rdd& output, int partition, EvalStart start) {
  GS_CHECK(start.rdd != nullptr);
  EvalResult result;
  result.records = Eval(output, partition, start, result).Take();
  // The boundary itself may be cached (e.g. a cached ShuffledRdd).
  if (&output == start.rdd && output.cached() && !start.already_processed) {
    result.cache_fills.push_back(EvalResult::CacheFill{
        output.id(), partition, MakeRecords(result.records)});
  }
  return result;
}

EvalCut FindEvalCut(const Rdd& output, int partition,
                    const BlockManager& blocks) {
  const Rdd* current = &output;
  int p = partition;
  for (;;) {
    if (current->cached() &&
        !blocks.Locations(BlockId::Cached(current->id(), p)).empty()) {
      return EvalCut{current, p, /*is_cached_cut=*/true};
    }
    switch (current->kind()) {
      case RddKind::kMapPartitions:
        current =
            static_cast<const MapPartitionsRdd*>(current)->parent().get();
        break;
      case RddKind::kUnion: {
        const auto& u = static_cast<const UnionRdd&>(*current);
        auto [parent_idx, parent_part] = u.Resolve(p);
        current = u.parents()[parent_idx].get();
        p = parent_part;
        break;
      }
      case RddKind::kSource:
      case RddKind::kShuffled:
      case RddKind::kTransferred:
        return EvalCut{current, p, /*is_cached_cut=*/false};
    }
  }
}

}  // namespace gs

#include "dag/dag_scheduler.h"

#include <memory>
#include <utility>

#include "common/check.h"

namespace gs {
namespace {

class TransferInserter {
 public:
  explicit TransferInserter(const RddIdAlloc& alloc) : alloc_(alloc) {}

  RddPtr Rewrite(const RddPtr& rdd) {
    auto it = memo_.find(rdd.get());
    if (it != memo_.end()) return it->second;
    RddPtr result = RewriteUncached(rdd);
    memo_.emplace(rdd.get(), result);
    return result;
  }

 private:
  RddPtr RewriteUncached(const RddPtr& rdd) {
    switch (rdd->kind()) {
      case RddKind::kSource:
        return rdd;
      case RddKind::kMapPartitions: {
        const auto& m = static_cast<const MapPartitionsRdd&>(*rdd);
        RddPtr parent = Rewrite(m.parent());
        if (parent == m.parent()) return rdd;
        auto clone = std::make_shared<MapPartitionsRdd>(alloc_(), m.name(),
                                                        parent, m.fn());
        clone->set_cached(rdd->cached());
        return clone;
      }
      case RddKind::kUnion: {
        const auto& u = static_cast<const UnionRdd&>(*rdd);
        std::vector<RddPtr> parents;
        bool changed = false;
        for (const RddPtr& p : u.parents()) {
          parents.push_back(Rewrite(p));
          changed = changed || parents.back() != p;
        }
        if (!changed) return rdd;
        auto clone = std::make_shared<UnionRdd>(alloc_(), u.name(),
                                                std::move(parents));
        clone->set_cached(rdd->cached());
        return clone;
      }
      case RddKind::kTransferred: {
        const auto& t = static_cast<const TransferredRdd&>(*rdd);
        RddPtr parent = Rewrite(t.parent());
        if (parent == t.parent()) return rdd;
        auto clone = std::make_shared<TransferredRdd>(alloc_(), t.name(),
                                                      parent, t.target_dc());
        clone->set_cached(rdd->cached());
        return clone;
      }
      case RddKind::kShuffled: {
        const auto& s = static_cast<const ShuffledRdd&>(*rdd);
        RddPtr parent = Rewrite(s.parent());
        // The developer may already have placed an explicit transferTo
        // before this shuffle; respect it (Sec. IV-E, explicit embedding).
        if (parent->kind() != RddKind::kTransferred) {
          parent = std::make_shared<TransferredRdd>(
              alloc_(), "transferTo(auto)", parent, kNoDc);
        }
        if (parent == s.parent()) return rdd;
        auto clone = std::make_shared<ShuffledRdd>(alloc_(), s.name(), parent,
                                                   s.shuffle());
        clone->set_cached(rdd->cached());
        return clone;
      }
    }
    GS_CHECK_MSG(false, "unknown RddKind");
    return nullptr;
  }

  const RddIdAlloc& alloc_;
  std::unordered_map<const Rdd*, RddPtr> memo_;
};

bool IsBoundary(const Rdd& rdd) {
  return rdd.kind() == RddKind::kSource || rdd.kind() == RddKind::kShuffled ||
         rdd.kind() == RddKind::kTransferred;
}

void CollectLeavesInto(const Rdd& rdd, std::vector<const Rdd*>& out) {
  if (IsBoundary(rdd)) {
    for (const Rdd* seen : out) {
      if (seen == &rdd) return;
    }
    out.push_back(&rdd);
    return;
  }
  for (const RddPtr& p : rdd.parents()) CollectLeavesInto(*p, out);
}

class StageBuilder {
 public:
  std::vector<Stage> Build(const RddPtr& final_rdd) {
    BuildStage(final_rdd, StageOutputKind::kResult, nullptr, nullptr);
    return std::move(stages_);
  }

 private:
  StageId BuildStage(const RddPtr& output, StageOutputKind kind,
                     const ShuffledRdd* consumer_shuffle,
                     const TransferredRdd* consumer_transfer) {
    // One stage per (output rdd, consumer) pair; memoize on the output rdd:
    // a chain reused by two consumers is built twice, matching Spark's
    // behaviour of one ShuffleMapStage per shuffle dependency.
    Stage stage;
    stage.output_rdd = output;
    stage.output = kind;
    stage.consumer_shuffle = consumer_shuffle;
    stage.consumer_transfer = consumer_transfer;

    // Reserve this stage's slot so children get higher ids than parents...
    // parents must come first, so build parents before appending.
    std::vector<const Rdd*> leaves = CollectLeaves(*output);
    std::vector<StageId> barrier_parents;
    StageId transfer_producer = -1;
    bool starts_at_transfer = false;

    for (const Rdd* leaf : leaves) {
      if (leaf->kind() == RddKind::kShuffled) {
        const auto& s = static_cast<const ShuffledRdd&>(*leaf);
        StageId parent = BuildStage(s.parent(), StageOutputKind::kShuffleWrite,
                                    &s, nullptr);
        barrier_parents.push_back(parent);
      } else if (leaf->kind() == RddKind::kTransferred) {
        const auto& t = static_cast<const TransferredRdd&>(*leaf);
        GS_CHECK_MSG(!starts_at_transfer,
                     "a stage may contain at most one transferTo boundary");
        starts_at_transfer = true;
        transfer_producer = BuildStage(
            t.parent(), StageOutputKind::kTransferProduce, nullptr, &t);
        GS_CHECK_MSG(output->num_partitions() == t.num_partitions(),
                     "receiver stage must be one-to-one with transferTo");
      }
    }

    stage.barrier_parents = std::move(barrier_parents);
    stage.transfer_producer = transfer_producer;
    stage.starts_at_transfer = starts_at_transfer;

    // Map-side combine: applied by the stage that produces shuffle input.
    // For a transfer-producer stage, look through the transferTo to the
    // consuming shuffle, so the combine runs before the push (Sec. IV-C3).
    if (kind == StageOutputKind::kShuffleWrite && consumer_shuffle) {
      if (!starts_at_transfer) {
        stage.pre_output_combine = consumer_shuffle->shuffle().combine;
      }
      // A receiver stage writing shuffle files never recombines: the
      // producer already did (Sec. IV-C3, "avoid repetitive computation on
      // the receivers").
    } else if (kind == StageOutputKind::kTransferProduce &&
               consumer_transfer) {
      const ShuffledRdd* downstream = FindConsumingShuffle(*consumer_transfer);
      if (downstream) {
        stage.pre_output_combine = downstream->shuffle().combine;
      }
    }

    stage.id = static_cast<StageId>(stages_.size());
    stages_.push_back(stage);
    if (transfer_producer >= 0) {
      stages_[transfer_producer].transfer_consumer = stage.id;
    }
    return stage.id;
  }

  // Finds the ShuffledRdd (if any) that consumes this TransferredRdd. The
  // Dataset facade builds transferTo->shuffle chains directly, so scanning
  // the already-built stages for a stage whose boundary is this transfer
  // and whose consumer is a shuffle would be circular; instead we rely on
  // the graph shape: the consuming shuffle is recorded when the *receiver*
  // stage is built, but the producer stage is built first. The engine
  // resolves this by passing the consuming shuffle through the stage
  // metadata after all stages exist (see PatchProducerCombines).
  const ShuffledRdd* FindConsumingShuffle(const TransferredRdd&) {
    return nullptr;
  }

  std::vector<Stage> stages_;
};

// After all stages are built, copy each receiver stage's consuming-shuffle
// combine back onto its producer stage, and clear it from any receiver
// stage (the producer combines before the push; the receiver must not
// recombine).
void PatchProducerCombines(std::vector<Stage>& stages) {
  for (Stage& stage : stages) {
    if (!stage.starts_at_transfer) continue;
    GS_CHECK(stage.transfer_producer >= 0);
    Stage& producer = stages[stage.transfer_producer];
    if (stage.output == StageOutputKind::kShuffleWrite &&
        stage.consumer_shuffle != nullptr) {
      producer.pre_output_combine = stage.consumer_shuffle->shuffle().combine;
    }
  }
}

}  // namespace

RddPtr InsertTransfersBeforeShuffles(const RddPtr& rdd,
                                     const RddIdAlloc& alloc) {
  GS_CHECK(rdd != nullptr);
  GS_CHECK(alloc != nullptr);
  TransferInserter inserter(alloc);
  return inserter.Rewrite(rdd);
}

LeafRef ResolveLeaf(const Rdd& output, int partition) {
  const Rdd* current = &output;
  int p = partition;
  while (!IsBoundary(*current)) {
    switch (current->kind()) {
      case RddKind::kMapPartitions:
        current = static_cast<const MapPartitionsRdd*>(current)->parent().get();
        break;
      case RddKind::kUnion: {
        const auto& u = static_cast<const UnionRdd&>(*current);
        auto [parent_idx, parent_part] = u.Resolve(p);
        current = u.parents()[parent_idx].get();
        p = parent_part;
        break;
      }
      default:
        GS_CHECK_MSG(false, "unexpected narrow rdd kind");
    }
  }
  return LeafRef{current, p};
}

std::vector<const Rdd*> CollectLeaves(const Rdd& output) {
  std::vector<const Rdd*> leaves;
  if (IsBoundary(output)) {
    // The stage is a bare boundary rdd (e.g. collect straight after a
    // shuffle): the boundary is also the output.
    leaves.push_back(&output);
    return leaves;
  }
  CollectLeavesInto(output, leaves);
  return leaves;
}

std::vector<Stage> BuildStages(const RddPtr& final_rdd) {
  GS_CHECK(final_rdd != nullptr);
  StageBuilder builder;
  std::vector<Stage> stages = builder.Build(final_rdd);
  PatchProducerCombines(stages);
  return stages;
}

}  // namespace gs

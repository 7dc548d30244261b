#include "engine/shuffle/receiver_placement.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/log.h"
#include "exec/evaluator.h"

namespace gs {
namespace {

// Adaptive replanning (docs/ADAPTIVE.md). A receiver shard only moves when
// the best alternative datacenter's estimated aggregation time beats the
// current one by at least kReplanHysteresis, which damps oscillation
// between near-equal datacenters. A push path counts as degraded, and its
// shard falls back to fetch, when the link's estimated bandwidth drops
// below kDegradeThreshold of its base rate. Replanner passes of one stage
// are at least kMinReplanInterval apart; degradation events inside the
// window are absorbed by the next pass.
constexpr double kReplanHysteresis = 1.5;
constexpr double kDegradeThreshold = 0.1;
constexpr SimTime kMinReplanInterval = Seconds(1);

}  // namespace

ReceiverPlacement::ReceiverPlacement(GeoCluster& cluster, Rng& rng,
                                     JobMetrics& metrics)
    : cluster_(cluster),
      sim_(cluster.simulator()),
      topo_(cluster.topology()),
      config_(cluster.config()),
      rng_(rng),
      metrics_(metrics) {}

void ReceiverPlacement::ChooseAggregators(const Stage& producer) {
  // Sec. IV-D: the datacenter storing the largest amount of map input,
  // known before the map runs.
  std::vector<DcIndex> targets;
  if (producer.consumer_transfer->target_dc() != kNoDc) {
    targets = {producer.consumer_transfer->target_dc()};
  } else {
    const std::vector<Bytes> per_dc = StageInputPerDc(producer);
    targets = ChooseAggregatorDcs(per_dc);
  }
  std::string target_names;
  for (DcIndex dc : targets) {
    if (!target_names.empty()) target_names += ", ";
    target_names += topo_.datacenter(dc).name;
  }
  GS_LOG_INFO << "transferTo aggregator(s) for stage " << producer.id << ": "
              << target_names;
  GS_CHECK(!targets.empty());
  plans_[producer.transfer_consumer].dcs = std::move(targets);
}

NodeIndex ReceiverPlacement::Place(StageId consumer, NodeIndex producer_node) {
  Plan& plan = plans_[consumer];
  const std::vector<DcIndex>& targets = plan.dcs;
  GS_CHECK(!targets.empty());
  const DcIndex producer_dc = topo_.dc_of(producer_node);
  if (std::find(targets.begin(), targets.end(), producer_dc) !=
      targets.end()) {
    // Already in an aggregator datacenter: the transferTo task is
    // transparent (Sec. IV-C2) — no data moves.
    return producer_node;
  }
  // Mimic the Task Scheduler's host-level pick within the aggregator
  // subset: spread receivers round-robin over datacenters, then workers.
  // Only live workers qualify — a receiver pinned to a crashed executor
  // accepts the push and then waits forever for a slot (its write phase is
  // kNodeOnly, which never spills). If the chosen datacenter has no live
  // worker, fall back to recovery's pick over the whole subset.
  const int cursor = plan.rr_next++;
  const DcIndex dc = targets[cursor % targets.size()];
  std::vector<NodeIndex> workers;
  for (NodeIndex n : topo_.nodes_in(dc)) {
    if (IsLiveWorker(n)) workers.push_back(n);
  }
  if (workers.empty()) return PickNode(consumer, kNoNode);
  return workers[(cursor / targets.size()) % workers.size()];
}

NodeIndex ReceiverPlacement::PickNode(StageId consumer, NodeIndex exclude) {
  Plan& plan = plans_[consumer];
  GS_CHECK(!plan.dcs.empty());
  std::vector<NodeIndex> candidates;
  for (DcIndex dc : plan.dcs) {
    for (NodeIndex n : topo_.nodes_in(dc)) {
      if (n != exclude && IsLiveWorker(n)) candidates.push_back(n);
    }
  }
  if (candidates.empty()) {
    // Aggregator subset fully down: spill to any live worker.
    for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
      if (n != exclude && IsLiveWorker(n)) candidates.push_back(n);
    }
  }
  GS_CHECK_MSG(!candidates.empty(), "no live worker to host a receiver");
  return candidates[plan.rr_next++ % candidates.size()];
}

// ---------------------------------------------------------------------------
// Adaptive replanning (docs/ADAPTIVE.md)
// ---------------------------------------------------------------------------

bool ReceiverPlacement::ReplansOnWanChange() const {
  return config_.adaptive.enabled && config_.adaptive.pin_dc == kNoDc;
}

void ReceiverPlacement::RateLimit(StageId consumer,
                                  std::function<bool()> pass) {
  Plan& plan = plans_[consumer];
  const SimTime now = sim_.Now();
  // At most one pass per kMinReplanInterval of *strictly later* time.
  // Several degradation events landing at the same instant (a fault plan
  // collapsing a whole ingress at once) each re-run the pass, so the last
  // one sees every link already degraded. An event inside the window
  // schedules one catch-up pass at its end instead of being dropped — the
  // documented "absorbed by the next pass".
  const SimTime elapsed = plan.last_replan < 0 ? -1 : now - plan.last_replan;
  if (elapsed > 0 && elapsed < kMinReplanInterval) {
    if (!plan.replan_pending) {
      plan.replan_pending = true;
      sim_.ScheduleAt(plan.last_replan + kMinReplanInterval,
                      [this, consumer, pass = std::move(pass)] {
                        Plan& p = plans_[consumer];
                        p.replan_pending = false;
                        if (pass()) p.last_replan = sim_.Now();
                      });
    }
    return;
  }
  plan.last_replan = now;
  pass();
}

std::optional<bool> ReceiverPlacement::Retarget(const Stage& producer) {
  if (producer.consumer_transfer->target_dc() != kNoDc) {
    return std::nullopt;  // the application pinned this transfer's target
  }
  Plan& plan = plans_[producer.transfer_consumer];
  const std::vector<Bytes> per_dc = StageInputPerDc(producer);
  std::vector<DcIndex> ranking = ChooseAggregatorDcs(per_dc);

  // Hysteresis on the primary choice: abandon the current subset only when
  // the new best is estimated at least kReplanHysteresis times cheaper —
  // an estimate barely better than the incumbent is noise, and moving on
  // it would thrash placements on every jitter wobble. Only the
  // bandwidth-aware ranking gets here (ReplansOnWanChange).
  bool retargeted = false;
  if (ranking != plan.dcs) {
    const double cur = EstimatedAggregationSeconds(per_dc, plan.dcs.front());
    const double alt = EstimatedAggregationSeconds(per_dc, ranking.front());
    if (alt * kReplanHysteresis < cur) {
      GS_LOG_INFO << "replan: stage " << producer.transfer_consumer
                  << " aggregator " << topo_.datacenter(plan.dcs.front()).name
                  << " -> " << topo_.datacenter(ranking.front()).name
                  << " (est. " << cur << "s -> " << alt << "s)";
      plan.dcs = std::move(ranking);
      retargeted = true;
    }
  }
  return retargeted;
}

ReceiverPlacement::Move ReceiverPlacement::ReplanShard(
    StageId consumer, bool retargeted, int partition, NodeIndex node,
    NodeIndex producer_node) {
  Move move{node, false};
  const DcIndex cur_dc = topo_.dc_of(node);
  const auto& targets = plans_[consumer].dcs;
  if (retargeted &&
      std::find(targets.begin(), targets.end(), cur_dc) == targets.end()) {
    // The shard sits in a dropped datacenter. Mirror Place: transparent
    // co-location when the producer is inside the new subset, round-robin
    // over the subset's live workers otherwise.
    if (producer_node != kNoNode &&
        std::find(targets.begin(), targets.end(),
                  topo_.dc_of(producer_node)) != targets.end()) {
      move.node = producer_node;
    } else {
      move.node = PickNode(consumer, node);
    }
  }

  // Per-shard push->fetch fallback: when the push path into the chosen
  // datacenter has measurably collapsed — effective bandwidth below
  // kDegradeThreshold of the link's base rate — keep the shard on its
  // producer (a co-located no-op write) and let downstream reducers
  // fetch it. The mid-job analogue of RecoverReceiver's terminal
  // fallback, triggered by measurement instead of exhausted retries.
  if (producer_node != kNoNode &&
      topo_.dc_of(producer_node) != topo_.dc_of(move.node)) {
    const DcIndex src_dc = topo_.dc_of(producer_node);
    const DcIndex dst_dc = topo_.dc_of(move.node);
    const int link = topo_.wan_link_index(src_dc, dst_dc);
    if (link >= 0 &&
        cluster_.network().EstimateWanBandwidth(
            src_dc, dst_dc, kBandwidthEstimateWindow) <
            kDegradeThreshold * topo_.wan_link(link).base_rate) {
      move.node = producer_node;
      move.fallback = true;
      ++metrics_.adaptive_fallbacks;
      GS_LOG_INFO << "adaptive fallback: stage " << consumer << "/"
                  << partition << " degrades to fetch from "
                  << topo_.node(move.node).name;
    }
  }
  if (move.node != node && !move.fallback) ++metrics_.receivers_moved;
  return move;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool ReceiverPlacement::IsLiveWorker(NodeIndex n) const {
  return topo_.node(n).worker && cluster_.scheduler().node_up(n);
}

std::vector<Bytes> ReceiverPlacement::StageInputPerDc(const Stage& producer) {
  std::vector<Bytes> per_dc(topo_.num_datacenters(), 0);
  for (int p = 0; p < producer.num_tasks(); ++p) {
    EvalCut cut = FindEvalCut(*producer.output_rdd, p, cluster_.blocks());
    if (cut.is_cached_cut) {
      // Credit the nearest *live* replica — the node the stage's task will
      // actually read from. The first registered location may sit on a
      // down executor, and weighting its datacenter pulls the aggregator
      // toward a node that cannot even serve the block.
      const BlockId bid = BlockId::Cached(cut.rdd->id(), cut.partition);
      NodeIndex live = kNoNode;
      for (NodeIndex n : cluster_.blocks().Locations(bid)) {
        if (cluster_.scheduler().node_up(n)) {
          live = n;
          break;
        }
      }
      if (live == kNoNode) {
        GS_LOG_INFO << "aggregator choice: cached rdd" << cut.rdd->id()
                    << "/" << cut.partition
                    << " has no live replica; counting 0 bytes";
        ++metrics_.placement_misses;
        continue;
      }
      std::optional<Block> b = cluster_.blocks().Get(live, bid);
      if (!b) {
        GS_LOG_INFO << "aggregator choice: cached rdd" << cut.rdd->id()
                    << "/" << cut.partition << " missing on "
                    << topo_.node(live).name << "; counting 0 bytes";
        ++metrics_.placement_misses;
      }
      per_dc[topo_.dc_of(live)] += b ? b->bytes : 0;
      continue;
    }
    switch (cut.rdd->kind()) {
      case RddKind::kSource: {
        const auto& src = static_cast<const SourceRdd&>(*cut.rdd);
        NodeIndex loc = cluster_.SourceLocation(src, cut.partition);
        per_dc[topo_.dc_of(loc)] += src.partition(cut.partition).bytes;
        break;
      }
      case RddKind::kShuffled: {
        const auto& s = static_cast<const ShuffledRdd&>(*cut.rdd);
        const ShuffleId sid = s.shuffle().id;
        const int num_maps = cluster_.tracker().num_map_partitions(sid);
        for (int m = 0; m < num_maps; ++m) {
          const MapOutputLocation& out =
              cluster_.tracker().Output(sid, m, cut.partition);
          if (out.node != kNoNode) {
            per_dc[topo_.dc_of(out.node)] += out.bytes;
          }
        }
        break;
      }
      case RddKind::kTransferred: {
        // This stage's input arrives through its own receiver tasks; it
        // lives in the stage's (already decided) aggregator subset.
        // Weight by partition count — all partitions land there.
        const std::vector<DcIndex>& own = plans_[producer.id].dcs;
        GS_CHECK(!own.empty());
        for (DcIndex dc : own) per_dc[dc] += 1;
        break;
      }
      default:
        GS_CHECK_MSG(false, "unexpected boundary while choosing aggregator");
    }
  }
  return per_dc;
}

// Every ordering stable-sorts the identity ranking, so ties keep index
// order; kRandom consumes one Rng::Shuffle of the full vector.
std::vector<DcIndex> ReceiverPlacement::Rank(
    const std::vector<Bytes>& per_dc) {
  GS_CHECK(static_cast<int>(per_dc.size()) == topo_.num_datacenters());
  std::vector<DcIndex> ranking(per_dc.size());
  std::iota(ranking.begin(), ranking.end(), 0);
  auto sort_by = [&ranking](auto before) {
    std::stable_sort(ranking.begin(), ranking.end(), before);
  };
  const DcIndex pin = config_.adaptive.pin_dc;
  if (pin != kNoDc) {
    sort_by([pin](DcIndex a, DcIndex b) { return (a == pin) > (b == pin); });
  } else if (config_.adaptive.enabled) {
    std::vector<double> score(per_dc.size());
    for (DcIndex dc = 0; dc < static_cast<DcIndex>(score.size()); ++dc) {
      score[dc] = EstimatedAggregationSeconds(per_dc, dc);
    }
    sort_by([&](DcIndex a, DcIndex b) {
      if (score[a] != score[b]) return score[a] < score[b];
      // Equal estimated times (e.g. an idle symmetric mesh): prefer the
      // larger input, like Eq. 2.
      return per_dc[a] > per_dc[b];
    });
  } else {
    switch (config_.aggregator_policy) {
      case AggregatorPolicy::kRandom:
        rng_.Shuffle(ranking);
        break;
      case AggregatorPolicy::kSmallestInput:
        sort_by([&](DcIndex a, DcIndex b) { return per_dc[a] < per_dc[b]; });
        break;
      case AggregatorPolicy::kLargestInput:
        sort_by([&](DcIndex a, DcIndex b) { return per_dc[a] > per_dc[b]; });
        break;
    }
  }
  return ranking;
}

// Input already inside the candidate costs nothing — which is exactly why
// Eq. 2's largest-input choice wins on healthy links, and why a degraded
// ingress link overturns it.
double ReceiverPlacement::EstimatedAggregationSeconds(
    const std::vector<Bytes>& per_dc, DcIndex dc) const {
  double seconds = 0;
  for (DcIndex src = 0; src < static_cast<DcIndex>(per_dc.size()); ++src) {
    const Bytes bytes = per_dc[src];
    if (src == dc || bytes == 0) continue;
    if (topo_.wan_link_index(src, dc) < 0) {
      return std::numeric_limits<double>::infinity();  // unreachable
    }
    const Rate bw = cluster_.network().EstimateWanBandwidth(
        src, dc, kBandwidthEstimateWindow);
    if (bw <= 0) return std::numeric_limits<double>::infinity();
    seconds += static_cast<double>(bytes) / bw;
  }
  return seconds;
}

std::vector<DcIndex> ReceiverPlacement::ChooseAggregatorDcs(
    const std::vector<Bytes>& per_dc) {
  std::vector<DcIndex> ranking = Rank(per_dc);
  const int k = std::clamp(config_.aggregator_dc_count, 1,
                           topo_.num_datacenters());
  ranking.resize(k);
  return ranking;
}

}  // namespace gs

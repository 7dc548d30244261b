// ReceiverPlacement: where one job's transferTo receivers land (Sec. IV-D)
// and, under adaptive replanning, where they move (docs/ADAPTIVE.md).
//
// Receivers are tasks, so JobRunner keeps them, with the push data path
// and its recovery. This unit owns each receiver stage's plan (its
// aggregator datacenters and round-robin cursor) and the ranking of
// datacenters, and returns node and push->fetch fallback decisions for
// JobRunner to apply. JobRunner calls it when a transfer producer stage is
// submitted (ChooseAggregators), when a producer task is assigned (Place),
// when a receiver is recovered after a crash (PickNode) and on a WAN
// change (RateLimit, Retarget, ReplanShard).
//
// The ranking is one of a closed set, fixed by RunConfig:
//  * pinned (AdaptiveConfig::pin_dc) — forces one datacenter; the
//    offline-oracle arm of bench_adaptive. The rest follow in index order.
//  * bandwidth-aware (AdaptiveConfig::enabled) — by the estimated time to
//    aggregate the stage's input in each datacenter over the measured WAN
//    (Network::EstimateWanBandwidth); a degraded ingress link overturns
//    Eq. 2's choice, and the replanner re-ranks on WAN changes.
//  * static (the default) — the paper's Eq. 2 largest input, or the
//    kRandom / kSmallestInput ablation orderings (AggregatorPolicy).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dag/stage.h"
#include "engine/cluster.h"

namespace gs {

// Trailing window of the per-link bandwidth estimate
// (Network::EstimateWanBandwidth) read by the bandwidth-aware ranking and
// by the replanner's push->fetch fallback: utilization buckets older than
// this are exponentially discounted.
constexpr SimTime kBandwidthEstimateWindow = Seconds(10);

class ReceiverPlacement {
 public:
  // `rng` is the job's stream (the kRandom ordering draws from it);
  // placement misses are counted in `metrics`.
  ReceiverPlacement(GeoCluster& cluster, Rng& rng, JobMetrics& metrics);
  // Catch-up replanning events hold its address.
  ReceiverPlacement(const ReceiverPlacement&) = delete;
  ReceiverPlacement& operator=(const ReceiverPlacement&) = delete;

  // Decides the aggregator datacenters of `producer`'s receiver stage when
  // the producer is submitted: the application's pinned target, or the
  // top-k of the ranking over the stage's input per datacenter.
  void ChooseAggregators(const Stage& producer);
  // Picks the receiver's node the moment its producer is placed on
  // `producer_node`, so the push can start straight at producer completion
  // (pipelining, Fig. 1b); the receiver only acquires an executor slot for
  // its write phase.
  NodeIndex Place(StageId consumer, NodeIndex producer_node);
  // A live worker of the consumer's aggregator subset other than `exclude`
  // (round-robin), or of any datacenter if the subset is fully down.
  NodeIndex PickNode(StageId consumer, NodeIndex exclude);

  // AdaptiveConfig::enabled. RecoverReceiver lifts a dead receiver's
  // kNodeOnly pin only then.
  bool adaptive() const { return config_.adaptive.enabled; }
  // Whether a WAN change re-runs placement: adaptive replanning is on and
  // no plan is pinned (the offline-oracle bench arm never moves).
  bool ReplansOnWanChange() const;
  // Rate limit: runs `pass` for `consumer` now, unless its previous pass
  // was less than kMinReplanInterval ago; then one catch-up pass runs when
  // the window expires, so WAN changes inside it are absorbed, not lost.
  // `pass` returns false when the stage no longer replans.
  void RateLimit(StageId consumer, std::function<bool()> pass);
  // Re-ranks the datacenters for `producer`'s receiver stage and moves
  // its aggregator subset when the new best is kReplanHysteresis times
  // cheaper. Returns whether it moved, or nullopt when the application
  // pinned the transfer's destination (nothing replans).
  std::optional<bool> Retarget(const Stage& producer);
  // A receiver shard's node after a replanning pass, and whether its push
  // degrades to fetch.
  struct Move {
    NodeIndex node = kNoNode;
    bool fallback = false;
  };
  // Replans one receiver shard whose push has not started: off a dropped
  // datacenter if the subset was `retargeted`, and onto its producer's
  // node (push->fetch fallback) when the push path's measured bandwidth
  // fell below kDegradeThreshold x base rate.
  Move ReplanShard(StageId consumer, bool retargeted, int partition,
                   NodeIndex node, NodeIndex producer_node);

  void RegisterCounters(MetricsRegistry& reg) const;

 private:
  // One receiver stage's placement.
  struct Plan {
    // Datacenters the stage's receiver tasks land in (usually one;
    // several when RunConfig::aggregator_dc_count > 1).
    std::vector<DcIndex> dcs;
    int rr_next = 0;  // round-robin cursor for receiver placement
    // Last time the adaptive replanner reconsidered this stage's placement
    // (-1 = never); rate-limits replanning to one pass per
    // kMinReplanInterval so a bursty jitter trace cannot thrash. A WAN
    // change inside the window sets replan_pending and a catch-up pass
    // runs when the window expires, so absorbed events are not lost.
    SimTime last_replan = -1;
    bool replan_pending = false;
  };

  bool IsLiveWorker(NodeIndex n) const;
  // Shuffle-input bytes per datacenter for the stage's pending transfer
  // (cached cuts credited to the nearest live replica; see
  // ChooseAggregatorDcs).
  std::vector<Bytes> StageInputPerDc(const Stage& producer);
  // Every datacenter, best first, by the ranking RunConfig selects.
  std::vector<DcIndex> Rank(const std::vector<Bytes>& per_dc);
  // Estimated seconds to move the input held outside `dc` into it over the
  // measured WAN (infinite when a needed link is missing or estimated at
  // 0); the
  // bandwidth-aware ranking's score and the replanner's hysteresis test.
  double EstimatedAggregationSeconds(const std::vector<Bytes>& per_dc,
                                     DcIndex dc) const;
  // The top-k of Rank(per_dc) (k = aggregator_dc_count).
  std::vector<DcIndex> ChooseAggregatorDcs(const std::vector<Bytes>& per_dc);
  // Satellite fix: a cached partition whose every replica is dead or
  // evicted at planning time is counted, not just logged.
  void CountPlacementMiss();

  GeoCluster& cluster_;
  Simulator& sim_;
  const Topology& topo_;
  const RunConfig& config_;
  Rng& rng_;
  JobMetrics& metrics_;
  std::unordered_map<StageId, Plan> plans_;  // by receiver stage
};

}  // namespace gs

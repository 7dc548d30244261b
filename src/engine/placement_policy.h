// Pluggable aggregator-datacenter selection (docs/ADAPTIVE.md).
//
// The paper fixes the aggregator choice to Eq. 2 — the datacenter storing
// the largest fraction of the stage's shuffle input, decided once before
// the map stage runs. That volume-only rule is blind to link conditions:
// a datacenter whose ingress links are congested or flapping can store the
// most bytes and still be the slowest place to aggregate. Following
// Exoshuffle's argument that shuffle policy belongs in a pluggable layer,
// JobRunner routes its choice through this interface:
//
//  * StaticAggregatorPolicy — the paper's Eq. 2 chooser (plus the kRandom /
//    kSmallestInput ablation orderings), bit-compatible with the inlined
//    code it replaced. The default; runs with adaptivity off.
//  * BandwidthAwareAggregatorPolicy — scores each candidate datacenter by
//    the estimated time to aggregate the stage's input there, using
//    netsim's effective-bandwidth estimate (current link capacity minus
//    decayed measured load, Network::EstimateWanBandwidth). Selected by
//    AdaptiveConfig::enabled; the mid-job replanner re-runs it when a WAN
//    link degrades.
//  * PinnedAggregatorPolicy — forces one datacenter
//    (AdaptiveConfig::pin_dc); the offline-oracle arm of bench_adaptive.
//
// Policies are pure rankers: they never mutate engine state, and the
// static backend consumes exactly the RNG draws the inlined code consumed,
// so runs with adaptivity off stay byte-identical to the seed goldens.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "engine/run_config.h"
#include "netsim/topology.h"

namespace gs {

class Network;

// Trailing window of the per-link bandwidth estimate
// (Network::EstimateWanBandwidth) read by the bandwidth-aware policy and
// by the replanner's push->fetch fallback: utilization buckets older than
// this are exponentially discounted.
constexpr SimTime kBandwidthEstimateWindow = Seconds(10);

class AggregatorPlacementPolicy {
 public:
  // Everything a backend may consult. `net` carries the bandwidth
  // estimates and may be null in unit tests of the static backend (which
  // never dereferences it).
  struct Context {
    const Topology* topo = nullptr;
    Network* net = nullptr;
    const RunConfig* config = nullptr;
    Rng* rng = nullptr;  // consumed only by the static kRandom ordering
  };

  virtual ~AggregatorPlacementPolicy() = default;

  virtual const char* name() const = 0;

  // Ranks every datacenter, best first, given the stage's input bytes per
  // datacenter. Callers truncate to RunConfig::aggregator_dc_count.
  virtual std::vector<DcIndex> Rank(
      const Context& ctx, const std::vector<Bytes>& input_per_dc) = 0;

  // Estimated cost of aggregating `input_per_dc` into `dc` (seconds;
  // lower is better). The replanner's hysteresis test compares these.
  // Backends without a meaningful cost return 0 for every datacenter, so
  // score comparisons alone never trigger a move.
  virtual double Score(const Context& ctx,
                       const std::vector<Bytes>& input_per_dc,
                       DcIndex dc) const {
    (void)ctx;
    (void)input_per_dc;
    (void)dc;
    return 0;
  }
};

// Builds the backend RunConfig selects: pinned when adaptive.pin_dc is
// set, bandwidth-aware when adaptive.enabled, the static Eq. 2 chooser
// otherwise.
std::unique_ptr<AggregatorPlacementPolicy> MakeAggregatorPolicy(
    const RunConfig& config);

}  // namespace gs

#include "engine/placement_policy.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "netsim/network.h"

namespace gs {
namespace {

std::vector<DcIndex> IdentityRanking(int num_dcs) {
  std::vector<DcIndex> ranking(static_cast<std::size_t>(num_dcs));
  for (DcIndex dc = 0; dc < num_dcs; ++dc) {
    ranking[static_cast<std::size_t>(dc)] = dc;
  }
  return ranking;
}

// The paper's Eq. 2 chooser plus the ablation orderings, exactly as the
// inlined JobRunner code ranked them (stable sort over the identity
// ranking; kRandom consumes one Rng::Shuffle of the full vector).
class StaticAggregatorPolicy : public AggregatorPlacementPolicy {
 public:
  const char* name() const override { return "static"; }

  std::vector<DcIndex> Rank(
      const Context& ctx, const std::vector<Bytes>& input_per_dc) override {
    std::vector<DcIndex> ranking =
        IdentityRanking(static_cast<int>(input_per_dc.size()));
    switch (ctx.config->aggregator_policy) {
      case AggregatorPolicy::kRandom:
        ctx.rng->Shuffle(ranking);
        break;
      case AggregatorPolicy::kSmallestInput:
        std::stable_sort(ranking.begin(), ranking.end(),
                         [&input_per_dc](DcIndex a, DcIndex b) {
                           return input_per_dc[a] < input_per_dc[b];
                         });
        break;
      case AggregatorPolicy::kLargestInput:
        std::stable_sort(ranking.begin(), ranking.end(),
                         [&input_per_dc](DcIndex a, DcIndex b) {
                           return input_per_dc[a] > input_per_dc[b];
                         });
        break;
    }
    return ranking;
  }
};

// Scores each candidate datacenter by the estimated time to move the
// stage's input there over the measured WAN: bytes held in every other
// datacenter divided by the effective bandwidth of the link into the
// candidate. Input already inside the candidate costs nothing — which is
// exactly why Eq. 2's largest-input choice wins on healthy links, and why
// a degraded ingress link overturns it here.
class BandwidthAwareAggregatorPolicy : public AggregatorPlacementPolicy {
 public:
  const char* name() const override { return "bandwidth-aware"; }

  std::vector<DcIndex> Rank(
      const Context& ctx, const std::vector<Bytes>& input_per_dc) override {
    const int num_dcs = static_cast<int>(input_per_dc.size());
    std::vector<double> score(static_cast<std::size_t>(num_dcs));
    for (DcIndex dc = 0; dc < num_dcs; ++dc) {
      score[static_cast<std::size_t>(dc)] = Score(ctx, input_per_dc, dc);
    }
    std::vector<DcIndex> ranking = IdentityRanking(num_dcs);
    std::stable_sort(ranking.begin(), ranking.end(),
                     [&](DcIndex a, DcIndex b) {
                       if (score[a] != score[b]) return score[a] < score[b];
                       // Equal estimated times (e.g. an idle symmetric
                       // mesh): prefer the larger input, like Eq. 2.
                       return input_per_dc[a] > input_per_dc[b];
                     });
    return ranking;
  }

  double Score(const Context& ctx, const std::vector<Bytes>& input_per_dc,
               DcIndex dc) const override {
    GS_CHECK(ctx.net != nullptr && ctx.topo != nullptr);
    double seconds = 0;
    for (DcIndex src = 0;
         src < static_cast<DcIndex>(input_per_dc.size()); ++src) {
      const Bytes bytes = input_per_dc[static_cast<std::size_t>(src)];
      if (src == dc || bytes == 0) continue;
      if (ctx.topo->wan_link_index(src, dc) < 0) {
        return std::numeric_limits<double>::infinity();  // unreachable
      }
      const Rate bw =
          ctx.net->EstimateWanBandwidth(src, dc, kBandwidthEstimateWindow);
      if (bw <= 0) return std::numeric_limits<double>::infinity();
      seconds += static_cast<double>(bytes) / bw;
    }
    return seconds;
  }
};

// Forces one datacenter; the rest follow in index order (a multi-DC
// aggregator count still gets a deterministic tail).
class PinnedAggregatorPolicy : public AggregatorPlacementPolicy {
 public:
  const char* name() const override { return "pinned"; }

  std::vector<DcIndex> Rank(
      const Context& ctx, const std::vector<Bytes>& input_per_dc) override {
    const DcIndex pin = ctx.config->adaptive.pin_dc;
    std::vector<DcIndex> ranking =
        IdentityRanking(static_cast<int>(input_per_dc.size()));
    std::stable_sort(ranking.begin(), ranking.end(),
                     [pin](DcIndex a, DcIndex b) {
                       return (a == pin) > (b == pin);
                     });
    return ranking;
  }
};

}  // namespace

std::unique_ptr<AggregatorPlacementPolicy> MakeAggregatorPolicy(
    const RunConfig& config) {
  if (config.adaptive.pin_dc != kNoDc) {
    return std::make_unique<PinnedAggregatorPolicy>();
  }
  if (config.adaptive.enabled) {
    return std::make_unique<BandwidthAwareAggregatorPolicy>();
  }
  return std::make_unique<StaticAggregatorPolicy>();
}

}  // namespace gs

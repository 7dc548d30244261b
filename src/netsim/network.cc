#include "netsim/network.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/log.h"

namespace gs {
namespace {

// Flows below this many remaining bytes are considered finished; guards
// against floating-point residue keeping a flow alive forever.
constexpr double kByteEpsilon = 1e-6;

// Starvation guard (satellite bugfix, docs/PERF.md): progressive filling
// subtracts each frozen share from every resource the flow crosses, and
// floating-point rounding can leave a live resource with remaining
// capacity at (or clamped to) exactly zero while unfrozen flows still use
// it. A zero rate means no completion event, and a flow with no completion
// event on an otherwise quiet network is stranded forever. Any share that
// collapses to zero on a resource with real capacity is floored to this
// fraction of the capacity instead — small enough to be irrelevant to any
// measured rate, large enough that the flow keeps a finite deadline.
constexpr double kStarvationRateFraction = 1e-9;

// Component departures tolerated before a rebuild re-splits drifted
// unions. Small components rebuild after a fixed budget; large ones only
// after a departure count proportional to their live size, keeping the
// amortized rebuild cost per flow constant.
constexpr int kRebuildMinRemovals = 64;

// Min-heap ordering of the (share, resource) heap via std::push_heap/
// pop_heap: the front is the smallest share, ties broken toward the smaller
// resource index — exactly the first-strict-minimum rule of the linear
// bottleneck scan this heap replaces. Only the shares form a heap; the TCP
// caps are a list with a lower bound (SolveComponent).
struct HeapLater {
  bool operator()(const std::pair<double, int>& a,
                  const std::pair<double, int>& b) const {
    return a > b;
  }
};

}  // namespace

const char* FlowKindName(FlowKind kind) {
  switch (kind) {
    case FlowKind::kShuffleFetch: return "shuffle-fetch";
    case FlowKind::kShufflePush: return "shuffle-push";
    case FlowKind::kCentralize: return "centralize";
    case FlowKind::kCollect: return "collect";
    case FlowKind::kStorePut: return "store-put";
    case FlowKind::kStoreGet: return "store-get";
    case FlowKind::kFabric: return "fabric";
    case FlowKind::kCodedMulticast: return "coded-multicast";
    case FlowKind::kOther: return "other";
  }
  return "unknown";
}

TrafficMeter::TrafficMeter(int num_dcs)
    : num_dcs_(num_dcs),
      pair_bytes_(static_cast<std::size_t>(num_dcs) * num_dcs, 0),
      store_pair_bytes_(static_cast<std::size_t>(num_dcs) * num_dcs, 0) {}

void TrafficMeter::Record(DcIndex src, DcIndex dst, FlowKind kind,
                          Bytes bytes) {
  GS_CHECK(src >= 0 && src < num_dcs_ && dst >= 0 && dst < num_dcs_);
  GS_CHECK(bytes >= 0);
  pair_bytes_[static_cast<std::size_t>(src) * num_dcs_ + dst] += bytes;
  if (kind == FlowKind::kStorePut || kind == FlowKind::kStoreGet) {
    store_pair_bytes_[static_cast<std::size_t>(src) * num_dcs_ + dst] +=
        bytes;
  }
  kind_total_[static_cast<int>(kind)] += bytes;
  if (src != dst) kind_cross_dc_[static_cast<int>(kind)] += bytes;
}

Bytes TrafficMeter::cross_dc_total() const {
  Bytes total = 0;
  for (DcIndex s = 0; s < num_dcs_; ++s) {
    for (DcIndex d = 0; d < num_dcs_; ++d) {
      if (s != d) total += pair_bytes(s, d);
    }
  }
  return total;
}

Bytes TrafficMeter::cross_dc_of_kind(FlowKind kind) const {
  auto it = kind_cross_dc_.find(static_cast<int>(kind));
  return it == kind_cross_dc_.end() ? 0 : it->second;
}

Bytes TrafficMeter::pair_bytes(DcIndex src, DcIndex dst) const {
  return pair_bytes_[static_cast<std::size_t>(src) * num_dcs_ + dst];
}

Bytes TrafficMeter::total_of_kind(FlowKind kind) const {
  auto it = kind_total_.find(static_cast<int>(kind));
  return it == kind_total_.end() ? 0 : it->second;
}

Bytes TrafficMeter::store_pair_bytes(DcIndex src, DcIndex dst) const {
  return store_pair_bytes_[static_cast<std::size_t>(src) * num_dcs_ + dst];
}

Network::Network(Simulator& sim, const Topology& topo, NetworkConfig config,
                 Rng jitter_rng, MetricsRegistry* metrics)
    : sim_(sim),
      topo_(topo),
      config_(config),
      jitter_rng_(std::move(jitter_rng)),
      meter_(topo.num_datacenters()) {
  if (metrics != nullptr) {
    m_flows_started_ = &metrics->counter("netsim.flows_started");
    m_flows_completed_ = &metrics->counter("netsim.flows_completed");
    m_flows_cancelled_ = &metrics->counter("netsim.flows_cancelled");
    m_wan_stalls_ = &metrics->counter("netsim.wan_stalls");
    m_rate_recomputes_ = &metrics->counter("netsim.rate_recomputes");
    m_solver_flows_ = &metrics->counter("netsim.solver_flows");
    m_reschedules_ = &metrics->counter("netsim.flow_reschedules");
    m_starvation_guards_ = &metrics->counter("netsim.starvation_guards");
    m_active_flows_ = &metrics->gauge("netsim.active_flows");
    // 1 KiB .. 4 GiB in x4 steps; shuffle blocks land mid-range.
    const std::vector<double> bounds = ExponentialBounds(1024, 4, 12);
    m_fetch_bytes_ = &metrics->histogram("netsim.fetch_flow_bytes", bounds);
    m_push_bytes_ = &metrics->histogram("netsim.push_flow_bytes", bounds);
    m_multicasts_started_ = &metrics->counter("netsim.multicasts_started");
    m_multicasts_completed_ = &metrics->counter("netsim.multicasts_completed");
    m_multicast_legs_ = &metrics->counter("netsim.multicast_legs");
  }
  const std::size_t num_res =
      2 * static_cast<std::size_t>(topo_.num_nodes()) + topo_.num_wan_links();
  capacity_.resize(num_res);
  for (NodeIndex n = 0; n < topo_.num_nodes(); ++n) {
    capacity_[UplinkRes(n)] = topo_.node(n).nic_rate;
    capacity_[DownlinkRes(n)] = topo_.node(n).nic_rate;
  }
  wan_current_.resize(topo_.num_wan_links());
  degrade_.assign(topo_.num_wan_links(), 1.0);
  for (int l = 0; l < topo_.num_wan_links(); ++l) {
    wan_current_[l] = topo_.wan_link(l).base_rate;
    capacity_[WanRes(l)] = wan_current_[l];
  }
  res_comp_.assign(num_res, -1);
  res_dirty_token_.assign(num_res, 0);
  rem_cap_.assign(num_res, 0.0);
  res_count_.assign(num_res, 0);
  res_row_.assign(num_res, 0);
  id_to_slot_.push_back(-1);  // FlowId 0 is never issued
}

std::int32_t Network::AllocSlot() {
  if (!free_slots_.empty()) {
    const std::int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slab_.emplace_back();
  return static_cast<std::int32_t>(slab_.size()) - 1;
}

void Network::RetireFlow(std::int32_t slot) {
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  if (f.started) {
    MarkFlowResourcesDirty(f);
    // Drop contention before the component update: a rebuild triggered by
    // this departure must not re-insert the dying flow.
    f.started = false;
    RemoveFlowFromComponent(f);
  }
  id_to_slot_[static_cast<std::size_t>(f.id)] = -1;
  f.on_complete = nullptr;
  f.completion_event = EventHandle{};
  free_slots_.push_back(slot);
  --tracked_flows_;
  if (m_active_flows_ != nullptr) {
    m_active_flows_->Set(tracked_flows_);
  }
}

FlowId Network::StartFlow(NodeIndex src, NodeIndex dst, Bytes bytes,
                          FlowKind kind, CompletionFn on_complete) {
  return StartFlow(FlowSpec{src, dst, bytes, kind}, std::move(on_complete));
}

int Network::AddServiceResource(Rate capacity) {
  GS_CHECK_MSG(next_flow_id_ == 1,
               "service resources must be registered before any flow starts");
  GS_CHECK_MSG(std::isfinite(capacity) && capacity > 0,
               "service resource capacity must be positive and finite, got "
                   << capacity);
  const int idx = static_cast<int>(capacity_.size());
  capacity_.push_back(capacity);
  res_comp_.push_back(-1);
  res_dirty_token_.push_back(0);
  rem_cap_.push_back(0.0);
  res_count_.push_back(0);
  res_row_.push_back(0);
  return idx;
}

FlowId Network::StartFlow(const FlowSpec& spec, CompletionFn on_complete) {
  GS_CHECK(spec.src >= 0 && spec.src < topo_.num_nodes());
  GS_CHECK(spec.dst >= 0 && spec.dst < topo_.num_nodes());
  GS_CHECK(spec.bytes >= 0);
  GS_CHECK(on_complete != nullptr);
  GS_CHECK_MSG(spec.service_res < 0 ||
                   (spec.service_res >= FirstServiceRes() &&
                    spec.service_res < static_cast<int>(capacity_.size())),
               "bad service resource index " << spec.service_res);
  GS_CHECK(spec.rate_cap >= 0 && std::isfinite(spec.rate_cap));
  GS_CHECK(spec.extra_setup >= 0 && std::isfinite(spec.extra_setup));

  const FlowId id = next_flow_id_++;
  const DcIndex src_dc = topo_.dc_of(spec.src);
  const DcIndex dst_dc = topo_.dc_of(spec.dst);

  meter_.Record(src_dc, dst_dc, spec.kind, spec.bytes);
  if (m_flows_started_ != nullptr) {
    m_flows_started_->Add(1);
    if (spec.kind == FlowKind::kShuffleFetch) {
      m_fetch_bytes_->Observe(static_cast<double>(spec.bytes));
    } else if (spec.kind == FlowKind::kShufflePush) {
      m_push_bytes_->Observe(static_cast<double>(spec.bytes));
    }
  }

  const std::int32_t slot = AllocSlot();
  GS_CHECK(static_cast<std::size_t>(id) == id_to_slot_.size());
  id_to_slot_.push_back(slot);
  ++tracked_flows_;
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  f.started = false;
  f.nres = 0;
  f.res[0] = f.res[1] = f.res[2] = -1;
  f.contend_seq = -1;
  f.rate = 0;
  f.rate_cap = spec.rate_cap;
  f.id = id;
  f.src = spec.src;
  f.dst = spec.dst;
  f.kind = spec.kind;
  f.remaining = static_cast<double>(spec.bytes);
  f.total = spec.bytes;
  f.created_at = sim_.Now();
  f.last_update = sim_.Now();
  f.wan_link = -1;
  f.attributed = 0;
  f.on_complete = std::move(on_complete);
  if (m_active_flows_ != nullptr) {
    m_active_flows_->Set(tracked_flows_);
  }

  const bool uplink = spec.src_uplink && spec.src != spec.dst;
  const bool downlink = spec.dst_downlink && spec.src != spec.dst;
  if (!uplink && !downlink && src_dc == dst_dc && spec.service_res < 0) {
    // No shared resource to contend for (loopback, or a same-DC spec that
    // skips both NICs): complete after a fixed local latency. The flow is
    // still metered (on the intra-DC diagonal), counted and tracked, so byte
    // conservation holds and CancelFlow on its id behaves normally. It never
    // sets `started`, so rate sharing and progress advancement skip it, and
    // it draws nothing from the jitter stream.
    f.completion_event = sim_.Schedule(Millis(0.1), [this, id] {
      const std::int32_t s = SlotOf(id);
      if (s < 0) return;  // cancelled before loopback latency
      FinishFlow(s);
      ScheduleDeferredReconfigure();
    });
    return id;
  }

  CatchUpJitter();
  SimTime setup = topo_.rtt(src_dc, dst_dc) / 2 + spec.extra_setup;
  if (uplink) {
    f.res[f.nres++] = static_cast<std::int32_t>(UplinkRes(spec.src));
  }
  if (src_dc != dst_dc) {
    int link = topo_.wan_link_index(src_dc, dst_dc);
    GS_CHECK_MSG(link >= 0, "no WAN link " << src_dc << "->" << dst_dc);
    f.res[f.nres++] = static_cast<std::int32_t>(WanRes(link));
    // Single-connection TCP ceiling and occasional stalls on WAN paths; an
    // explicit spec cap composes as the tighter of the two.
    const WanLinkSpec& lspec = topo_.wan_link(link);
    double eff = jitter_rng_.Uniform(config_.wan_flow_efficiency_min, 1.0);
    const Rate tcp_cap = eff * lspec.base_rate;
    f.rate_cap = f.rate_cap > 0 ? std::min(f.rate_cap, tcp_cap) : tcp_cap;
    if (config_.wan_stall_prob > 0 &&
        jitter_rng_.Bernoulli(config_.wan_stall_prob)) {
      setup += jitter_rng_.Uniform(kWanStallMin, kWanStallMax);
      if (m_wan_stalls_ != nullptr) m_wan_stalls_->Add(1);
    }
    f.wan_link = link;
  }
  if (downlink) {
    f.res[f.nres++] = static_cast<std::int32_t>(DownlinkRes(spec.dst));
  }
  if (spec.service_res >= 0) {
    GS_CHECK_MSG(f.nres < 3, "flow spec composes more than 3 resources");
    f.res[f.nres++] = static_cast<std::int32_t>(spec.service_res);
  }

  // Connection setup: the flow begins contending after one-way latency
  // (plus any stall). Entering contention perturbs exactly the flow's own
  // resources; the batched reconfigure re-shares those components once per
  // instant, however many flows arrive together.
  sim_.Schedule(setup, [this, id] {
    const std::int32_t s = SlotOf(id);
    if (s < 0) return;  // cancelled during setup
    Flow& flow = slab_[static_cast<std::size_t>(s)];
    flow.started = true;
    flow.last_update = sim_.Now();
    flow.contend_seq = next_contend_seq_++;
    AddFlowToComponent(s);
    MarkFlowResourcesDirty(flow);
    ScheduleDeferredReconfigure();
  });
  MaintainJitterEvent();
  return id;
}

void Network::CancelFlow(FlowId id) {
  const std::int32_t slot = SlotOf(id);
  if (slot < 0) return;
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  // Advance to Now() first so the bytes actually moved are attributed at
  // their real times, then settle the never-to-be-sent remainder here: the
  // meter charged the full size at start, and conservation must hold.
  AdvanceFlow(f, sim_.Now());
  SettleFlowResidual(f);
  f.completion_event.Cancel();
  RetireFlow(slot);
  if (m_flows_cancelled_ != nullptr) m_flows_cancelled_->Add(1);
  // Synchronous: callers observe the re-shared rates immediately.
  Reconfigure();
}

void Network::StartMulticastFlow(NodeIndex src,
                                 const std::vector<NodeIndex>& dsts,
                                 Bytes bytes, FlowKind kind,
                                 CompletionFn on_complete) {
  GS_CHECK(on_complete != nullptr);
  GS_CHECK_MSG(!dsts.empty(), "multicast needs at least one destination");
  // One leg per distinct receiving datacenter, received by the first node
  // listed for that DC; same-DC peers read the packet locally. Legs are
  // ordinary flows — max-min sharing, metering, utilization attribution
  // and RNG draws (TCP efficiency, stalls) all follow the unicast path in
  // the deterministic `dsts` order.
  std::vector<NodeIndex> receivers;
  for (NodeIndex dst : dsts) {
    GS_CHECK(dst >= 0 && dst < topo_.num_nodes());
    const DcIndex dc = topo_.dc_of(dst);
    bool seen = false;
    for (NodeIndex r : receivers) seen = seen || topo_.dc_of(r) == dc;
    if (!seen) receivers.push_back(dst);
  }
  // The group is bookkeeping over ordinary legs, owning no resources and
  // adding no solver state: the legs share one outstanding count, and the
  // last to finish fires `on_complete`.
  struct Group {
    int outstanding;
    CompletionFn on_complete;
  };
  auto group = std::make_shared<Group>(
      Group{static_cast<int>(receivers.size()), std::move(on_complete)});
  for (NodeIndex dst : receivers) {
    StartFlow(src, dst, bytes, kind, [this, group] {
      if (--group->outstanding > 0) return;
      CompletionFn done = std::move(group->on_complete);
      if (m_multicasts_completed_ != nullptr) m_multicasts_completed_->Add(1);
      done();
    });
  }
  if (m_multicasts_started_ != nullptr) {
    m_multicasts_started_->Add(1);
    m_multicast_legs_->Add(static_cast<std::int64_t>(receivers.size()));
  }
}

Rate Network::flow_rate(FlowId id) const {
  const std::int32_t slot = SlotOf(id);
  return slot < 0 ? 0 : slab_[static_cast<std::size_t>(slot)].rate;
}

Rate Network::wan_capacity(DcIndex src, DcIndex dst) {
  CatchUpJitter();
  int link = topo_.wan_link_index(src, dst);
  GS_CHECK(link >= 0);
  return wan_current_[link] * degrade_[link];
}

Rate Network::EstimateWanBandwidth(DcIndex src, DcIndex dst, SimTime window) {
  CatchUpJitter();
  const int link = topo_.wan_link_index(src, dst);
  GS_CHECK(link >= 0);
  const Rate current = wan_current_[link] * degrade_[link];
  // Every return path goes through the same clamp: at least the 5%
  // headroom floor, and never 0 or non-finite — a full outage (degrade
  // factor 0) collapses the floor itself to 0, and the aggregator ranking
  // divides by this estimate, so an absolute 1 B/s backstop keeps its
  // scores finite and comparable.
  const auto clamp = [current](Rate r) {
    const Rate floor = std::max(0.05 * current, Rate{1});
    return std::isfinite(r) ? std::max(r, floor) : floor;
  };
  if (util_ == nullptr || window <= 0) return clamp(current);
  const SimTime width = util_->bucket_width();
  const std::vector<Bytes>& buckets = util_->buckets(link);
  if (width <= 0 || buckets.empty()) return clamp(current);

  // Exponentially decayed average of the delivered throughput over the
  // trailing window: a bucket `span` buckets old weighs half as much as
  // the current one, buckets beyond the window are dropped entirely.
  const auto span = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(window / width));
  const std::int64_t now_bucket = util_->BucketOf(sim_.Now());
  const std::int64_t first = std::max<std::int64_t>(0, now_bucket - span);
  double weighted_rate = 0;
  double weight = 0;
  for (std::int64_t b = first;
       b <= now_bucket && b < static_cast<std::int64_t>(buckets.size());
       ++b) {
    const double age = static_cast<double>(now_bucket - b);
    const double w = std::exp2(-age / static_cast<double>(span));
    weighted_rate +=
        w * (static_cast<double>(buckets[static_cast<std::size_t>(b)]) /
             width);
    weight += w;
  }
  if (weight <= 0) return clamp(current);
  const Rate delivered = weighted_rate / weight;
  // Headroom estimate: what remains once the measured load keeps flowing.
  // The 5% floor keeps a fully saturated (but healthy) link distinguishable
  // from a degraded one.
  return clamp(current - delivered);
}

void Network::SetWanDegradation(DcIndex src, DcIndex dst, double factor) {
  GS_CHECK(factor >= 0);
  int link = topo_.wan_link_index(src, dst);
  GS_CHECK_MSG(link >= 0, "no WAN link " << src << "->" << dst);
  degrade_[link] = factor;
  capacity_[WanRes(link)] = wan_current_[link] * factor;
  MarkResDirty(WanRes(link));
  // Re-share bandwidth right away: flows on the link slow down (or stall
  // at factor 0) and their completion events move accordingly.
  Reconfigure();
}

void Network::MarkResDirty(int r) {
  if (res_dirty_token_[r] == dirty_token_) return;
  res_dirty_token_[r] = dirty_token_;
  dirty_res_.push_back(r);
}

void Network::MarkFlowResourcesDirty(const Flow& f) {
  for (int j = 0; j < f.nres; ++j) MarkResDirty(f.res[j]);
}

void Network::ScheduleDeferredReconfigure() {
  if (reconfigure_pending_) return;
  reconfigure_pending_ = true;
  sim_.Schedule(0, [this] {
    reconfigure_pending_ = false;
    Reconfigure();
  });
}

// ---------------------------------------------------------------------------
// Component maintenance
// ---------------------------------------------------------------------------

int Network::AllocComponent() {
  if (!comp_free_.empty()) {
    const int c = comp_free_.back();
    comp_free_.pop_back();
    comps_[static_cast<std::size_t>(c)].free = false;
    return c;
  }
  comps_.emplace_back();
  comps_.back().free = false;
  return static_cast<int>(comps_.size()) - 1;
}

void Network::ReleaseComponent(int c) {
  Component& comp = comps_[static_cast<std::size_t>(c)];
  for (const std::int32_t r : comp.resources) res_comp_[r] = -1;
  comp.entries.clear();
  comp.resources.clear();
  comp.live = 0;
  comp.removed_since_rebuild = 0;
  comp.dirty_token = 0;
  comp.free = true;
  comp_free_.push_back(c);
}

void Network::AddFlowToComponent(std::int32_t slot) {
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  int target = -1;
  for (int j = 0; j < f.nres; ++j) {
    const int c = res_comp_[f.res[j]];
    if (c < 0 || c == target) continue;
    target = target < 0 ? c : MergeComponents(target, c);
  }
  if (target < 0) target = AllocComponent();
  Component& comp = comps_[static_cast<std::size_t>(target)];
  for (int j = 0; j < f.nres; ++j) {
    const std::int32_t r = f.res[j];
    if (res_comp_[r] != target) {
      res_comp_[r] = target;
      comp.resources.push_back(r);
    }
  }
  // contend_seq is globally monotone, so appending keeps entries sorted.
  comp.entries.push_back(CompEntry{slot, f.contend_seq});
  ++comp.live;
}

int Network::MergeComponents(int a, int b) {
  if (comps_[static_cast<std::size_t>(a)].entries.size() <
      comps_[static_cast<std::size_t>(b)].entries.size()) {
    std::swap(a, b);
  }
  Component& big = comps_[static_cast<std::size_t>(a)];
  Component& small = comps_[static_cast<std::size_t>(b)];
  // Order-preserving small-into-large merge: both lists are sorted by
  // contend_seq, so the union stays in contention order and every flow is
  // moved O(log n) times over its lifetime.
  merge_scratch_.clear();
  merge_scratch_.reserve(big.entries.size() + small.entries.size());
  std::merge(big.entries.begin(), big.entries.end(), small.entries.begin(),
             small.entries.end(), std::back_inserter(merge_scratch_),
             [](const CompEntry& x, const CompEntry& y) {
               return x.seq < y.seq;
             });
  big.entries.swap(merge_scratch_);
  for (const std::int32_t r : small.resources) {
    res_comp_[r] = a;
    big.resources.push_back(r);
  }
  big.live += small.live;
  big.removed_since_rebuild += small.removed_since_rebuild;
  small.entries.clear();
  small.resources.clear();
  small.live = 0;
  small.removed_since_rebuild = 0;
  small.dirty_token = 0;
  small.free = true;
  comp_free_.push_back(b);
  return a;
}

void Network::RemoveFlowFromComponent(const Flow& f) {
  const int c = res_comp_[f.res[0]];
  GS_CHECK(c >= 0);
  Component& comp = comps_[static_cast<std::size_t>(c)];
  --comp.live;
  ++comp.removed_since_rebuild;
  if (comp.live == 0) {
    ReleaseComponent(c);
  } else if (comp.removed_since_rebuild >= kRebuildMinRemovals &&
             comp.removed_since_rebuild >= comp.live) {
    RebuildComponent(c);
  }
}

void Network::RebuildComponent(int c) {
  // Unions only ever grow while flows live; a departure may have split the
  // component in reality while the union still covers both halves. Solving
  // a stale superset is bitwise-harmless (disjoint sub-components solve
  // independently, so every unperturbed flow reproduces its old rate and
  // is skipped) but wastes work, so after enough departures the component
  // is torn down and its live flows re-inserted in contention order —
  // re-unioning into however many real components remain.
  rebuild_entries_.clear();
  for (const CompEntry e : comps_[static_cast<std::size_t>(c)].entries) {
    if (EntryFlow(e) != nullptr) rebuild_entries_.push_back(e);
  }
  ReleaseComponent(c);
  for (const CompEntry e : rebuild_entries_) AddFlowToComponent(e.slot);
}

// ---------------------------------------------------------------------------
// Rate solving
// ---------------------------------------------------------------------------

void Network::FreezeOne(SolveScratch& s, int idx, Rate rate) {
  s.new_rate[static_cast<std::size_t>(idx)] = rate;
  s.frozen[static_cast<std::size_t>(idx)] = 1;
  for (int j = 0; j < 3; ++j) {
    const std::int32_t r = s.res[static_cast<std::size_t>(3 * idx + j)];
    if (r < 0) continue;
    rem_cap_[r] -= rate;
    // Epsilon floor: rounding must never leave a resource with negative
    // remaining capacity, or its (negative) share would win every later
    // bottleneck scan and freeze whole flow sets at rate zero.
    if (rem_cap_[r] < 0) rem_cap_[r] = 0;
    --res_count_[r];
    const std::int32_t row = res_row_[r];
    if (!s.changed_mark[static_cast<std::size_t>(row)]) {
      s.changed_mark[static_cast<std::size_t>(row)] = 1;
      s.changed.push_back(r);
    }
  }
}

void Network::PushChangedShares(SolveScratch& s) {
  // One heap push per distinct perturbed resource per filling step, not
  // one per frozen flow: intermediate shares would fail validate-on-pop
  // anyway, so only the final value of the step needs to be present.
  for (const std::int32_t r : s.changed) {
    s.changed_mark[static_cast<std::size_t>(res_row_[r])] = 0;
    if (res_count_[r] > 0) {
      s.share_heap.emplace_back(rem_cap_[r] / res_count_[r], r);
      std::push_heap(s.share_heap.begin(), s.share_heap.end(), HeapLater{});
    }
  }
  s.changed.clear();
}

void Network::RescanCaps(SolveScratch& s) {
  // Drops the frozen flows' caps and takes the exact minimum of the rest,
  // ties toward the smaller solve index — the order a (cap, idx) min-heap
  // would pop them in.
  std::size_t kept = 0;
  for (const std::pair<double, int>& cap : s.caps) {
    if (s.frozen[static_cast<std::size_t>(cap.second)]) continue;
    if (kept == 0 || cap < s.cap_bound) s.cap_bound = cap;
    s.caps[kept++] = cap;
  }
  s.caps.resize(kept);
}

void Network::SolveComponent(int c, SolveScratch& s) {
  Component& comp = comps_[static_cast<std::size_t>(c)];
  s.slots.clear();
  s.old_rate.clear();
  s.caps.clear();
  s.share_heap.clear();
  s.res.clear();
  s.row_res.clear();
  s.changed.clear();
  s.starvation_guards = 0;

  // Stream the component's flows into a struct-of-arrays view, compacting
  // stale entries (finished/cancelled flows) in place.
  std::size_t kept = 0;
  for (const CompEntry e : comp.entries) {
    const Flow* f = EntryFlow(e);
    if (f == nullptr) continue;
    comp.entries[kept++] = e;
    s.slots.push_back(e.slot);
    s.old_rate.push_back(f->rate);
    if (f->rate_cap > 0) {
      // Each capped flow gets a virtual resource holding only itself (its
      // single-connection TCP ceiling). Uncapped flows would have an
      // infinite share — never the bottleneck, so they are not listed.
      const std::pair<double, int> cap(f->rate_cap,
                                       static_cast<int>(s.slots.size()) - 1);
      if (s.caps.empty() || cap < s.cap_bound) s.cap_bound = cap;
      s.caps.push_back(cap);
    }
    s.res.push_back(f->res[0]);
    s.res.push_back(f->res[1]);
    s.res.push_back(f->res[2]);
  }
  comp.entries.resize(kept);
  const int n = static_cast<int>(s.slots.size());
  s.new_rate.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return;

  // Per-resource tallies live in arrays indexed by resource id; only this
  // component's resources are reset and read.
  for (const std::int32_t r : comp.resources) {
    rem_cap_[r] = capacity_[r];
    res_count_[r] = 0;
  }
  for (const std::int32_t r : s.res) {
    if (r >= 0) ++res_count_[r];
  }
  std::int32_t rows = 0;
  for (const std::int32_t r : comp.resources) {
    if (res_count_[r] > 0) {
      res_row_[r] = rows++;
      s.row_res.push_back(r);
    }
  }
  // CSR member lists, filled in contention order.
  s.offsets.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (const std::int32_t r : s.res) {
    if (r >= 0) ++s.offsets[static_cast<std::size_t>(res_row_[r]) + 1];
  }
  for (std::int32_t row = 0; row < rows; ++row) {
    s.offsets[static_cast<std::size_t>(row) + 1] +=
        s.offsets[static_cast<std::size_t>(row)];
  }
  s.cursor.assign(s.offsets.begin(), s.offsets.end() - 1);
  s.members.resize(static_cast<std::size_t>(s.offsets[rows]));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) {
      const std::int32_t r = s.res[static_cast<std::size_t>(3 * i + j)];
      if (r < 0) continue;
      s.members[static_cast<std::size_t>(s.cursor[res_row_[r]]++)] = i;
    }
  }
  s.changed_mark.assign(static_cast<std::size_t>(rows), 0);

  for (const std::int32_t r : s.row_res) {
    s.share_heap.emplace_back(rem_cap_[r] / res_count_[r], r);
  }
  std::make_heap(s.share_heap.begin(), s.share_heap.end(), HeapLater{});
  s.frozen.assign(static_cast<std::size_t>(n), 0);

  // Progressive filling with a lazy share heap: entries are invalidated by
  // later freezes rather than updated in place, and validated on pop — a
  // stale entry is one whose stored share no longer equals the resource's
  // current fair share. The TCP caps need no heap: a typical solve takes
  // a cap step only once or twice, so `cap_bound`, the smallest (cap, idx)
  // in the list, is a lower bound over the unfrozen capped flows, exact
  // while its own flow is unfrozen, and the list is rescanned only when
  // the bound could win and its flow has frozen.
  int unfrozen = n;
  while (unfrozen > 0) {
    int best_res = -1;
    double best_share = 0;
    while (!s.share_heap.empty()) {
      const auto [share, r] = s.share_heap.front();
      if (res_count_[r] > 0 && share == rem_cap_[r] / res_count_[r]) {
        best_res = r;
        best_share = share;
        break;
      }
      std::pop_heap(s.share_heap.begin(), s.share_heap.end(), HeapLater{});
      s.share_heap.pop_back();
    }
    const auto cap_wins = [&] {
      return !s.caps.empty() &&
             (best_res < 0 || s.cap_bound.first < best_share);
    };
    if (cap_wins() &&
        s.frozen[static_cast<std::size_t>(s.cap_bound.second)]) {
      RescanCaps(s);  // the bound could win: make it exact
    }
    if (best_res < 0 && s.caps.empty()) break;  // every flow frozen-able

    if (cap_wins()) {
      // A TCP ceiling is the strict bottleneck: freeze just that flow.
      // Its entry stays in the list until the next rescan drops it.
      FreezeOne(s, s.cap_bound.second, s.cap_bound.first);
      --unfrozen;
      PushChangedShares(s);
      continue;
    }

    double share = std::max(best_share, 0.0);
    if (share <= 0 && capacity_[best_res] > 0) {
      share = capacity_[best_res] * kStarvationRateFraction;
      ++s.starvation_guards;
    }
    const std::int32_t row = res_row_[best_res];
    for (std::int32_t k = s.offsets[static_cast<std::size_t>(row)];
         k < s.offsets[static_cast<std::size_t>(row) + 1]; ++k) {
      const int idx = s.members[static_cast<std::size_t>(k)];
      if (s.frozen[static_cast<std::size_t>(idx)]) continue;
      FreezeOne(s, idx, share);
      --unfrozen;
    }
    PushChangedShares(s);
  }
}

void Network::SolveAndApply(SimTime now) {
  // Solve and apply one component at a time, in dirty-collection order —
  // fixed by event history — so completion events are (re)created in a
  // deterministic sequence and FIFO tie-breaking is reproducible.
  // Components share no flow or resource, so applying one cannot change
  // the inputs of the next one's solve.
  SolveScratch& s = scratch_;
  for (const int c : dirty_comps_) {
    SolveComponent(c, s);
    const std::size_t m = s.slots.size();
    if (m_solver_flows_ != nullptr) {
      m_solver_flows_->Add(static_cast<std::int64_t>(m));
    }
    if (m_starvation_guards_ != nullptr && s.starvation_guards > 0) {
      m_starvation_guards_->Add(s.starvation_guards);
    }
    for (std::size_t j = 0; j < m; ++j) {
      const Rate rate = s.new_rate[j];
      // Exactness of the reschedule skip: `remaining` and `last_update`
      // only change when the rate changes (AdvanceFlow below) or when the
      // completion event itself fires. So if the solve reproduced the old
      // rate, the pending event's absolute time was computed from exactly
      // the same (remaining, last_update, rate) triple that is current
      // now — cancelling and rescheduling would rebuild the identical
      // double. Skipping it changes no observable behavior, only queue
      // churn.
      if (rate == s.old_rate[j]) continue;
      Flow& f = slab_[static_cast<std::size_t>(s.slots[j])];
      AdvanceFlow(f, now);
      f.rate = rate;
      f.completion_event.Cancel();
      if (rate > 0) ScheduleCompletion(f, now);
    }
  }
}

void Network::AdvanceFlow(Flow& f, SimTime now) {
  if (now <= f.last_update) return;
  AttributeFlowProgress(f, f.last_update, now);
  f.remaining -= f.rate * (now - f.last_update);
  if (f.remaining < 0) f.remaining = 0;  // floating-point overshoot
  f.last_update = now;
}

void Network::ScheduleCompletion(Flow& f, SimTime now) {
  const SimTime when = now + f.remaining / f.rate;
  if (when <= now) {
    // remaining/rate underflowed the clock's resolution at `now` (a
    // fast service tier can drain a sub-byte residue in less than one
    // ulp of simulated time): the fluid finish is indistinguishable
    // from this instant. Snap the residue so the deadline settles the
    // flow instead of respinning a zero-progress event forever.
    f.remaining = 0;
  }
  if (!std::isfinite(when)) {
    // A starvation-guard-level rate can overflow remaining/rate to
    // infinity. An infinite deadline would corrupt the clock when it
    // fires; treat the flow as stalled instead — it resumes when the next
    // perturbation re-rates its component.
    f.rate = 0;
    if (m_starvation_guards_ != nullptr) m_starvation_guards_->Add(1);
    return;
  }
  const FlowId id = f.id;
  f.completion_event =
      sim_.ScheduleAt(when, [this, id] { OnFlowDeadline(id); });
  if (m_reschedules_ != nullptr) m_reschedules_->Add(1);
}

void Network::Reconfigure() {
  CatchUpJitter();
  const SimTime now = sim_.Now();
  if (!dirty_res_.empty()) {
    if (m_rate_recomputes_ != nullptr) m_rate_recomputes_->Add(1);
    // Collect the components containing dirty resources, deduplicated, in
    // mark order (deterministic event history).
    ++solve_token_;
    dirty_comps_.clear();
    for (const int r : dirty_res_) {
      const int c = res_comp_[r];
      if (c < 0) continue;  // no live flows on this resource
      Component& comp = comps_[static_cast<std::size_t>(c)];
      if (comp.dirty_token == solve_token_) continue;
      comp.dirty_token = solve_token_;
      dirty_comps_.push_back(c);
    }
    dirty_res_.clear();
    ++dirty_token_;  // retires all current dirty marks
    if (!dirty_comps_.empty()) SolveAndApply(now);
  }
  if (!pending_resched_.empty()) {
    // Flows whose deadline fired with residue left (rounding moved the
    // fluid finish past the predicted instant) but whose rate did not
    // change in the solve above: re-derive their completion event from
    // the advanced remainder.
    for (const FlowId id : pending_resched_) {
      const std::int32_t slot = SlotOf(id);
      if (slot < 0) continue;
      Flow& f = slab_[static_cast<std::size_t>(slot)];
      if (f.rate > 0 && !f.completion_event.pending()) {
        AdvanceFlow(f, now);
        ScheduleCompletion(f, now);
      }
    }
    pending_resched_.clear();
  }
  MaintainJitterEvent();
}

void Network::OnFlowDeadline(FlowId id) {
  const std::int32_t slot = SlotOf(id);
  if (slot < 0) return;
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  AdvanceFlow(f, sim_.Now());
  if (f.remaining <= kByteEpsilon) {
    // Snap sub-epsilon residue to zero so the flow's progress is exact by
    // the time it is settled; SettleFlowResidual then attributes the
    // integer remainder and conservation holds bit for bit.
    f.remaining = 0;
    FinishFlow(slot);
  } else {
    pending_resched_.push_back(id);
  }
  // One deferred solve per instant, however many flows finish together.
  ScheduleDeferredReconfigure();
}

void Network::FinishFlow(std::int32_t slot) {
  Flow& f = slab_[static_cast<std::size_t>(slot)];
  SettleFlowResidual(f);
  CompletionFn cb = std::move(f.on_complete);
  f.completion_event.Cancel();
  if (m_flows_completed_ != nullptr) m_flows_completed_->Add(1);
  if (observer_ && f.src != f.dst) {
    observer_(FlowRecord{f.id, f.src, f.dst, f.kind, f.total, f.created_at,
                         sim_.Now()});
  }
  RetireFlow(slot);
  // Run the completion through the simulator so that callbacks observe a
  // consistent network state and cannot reenter Reconfigure mid-loop.
  sim_.Schedule(0, std::move(cb));
}

void Network::EnableUtilization(SimTime bucket_width) {
  util_ = std::make_unique<LinkUtilization>(topo_.num_wan_links(),
                                            bucket_width);
}

void Network::AttributeFlowProgress(Flow& f, SimTime from, SimTime to) {
  if (util_ == nullptr || f.wan_link < 0) return;
  if (f.rate <= 0 || to <= from) return;
  // Cumulative rounding: at each bucket boundary, credit the difference
  // between floor(cumulative fluid progress) and what has been credited so
  // far. Residue carries forward instead of leaking.
  const double done_at_from = static_cast<double>(f.total) - f.remaining;
  const SimTime width = util_->bucket_width();
  std::int64_t bucket = util_->BucketOf(from);
  SimTime cursor = from;
  while (cursor < to) {
    const SimTime bucket_end = static_cast<SimTime>(bucket + 1) * width;
    const SimTime end = std::min(to, bucket_end);
    const double done = done_at_from + f.rate * (end - from);
    const Bytes target = std::min(f.total, static_cast<Bytes>(done));
    if (target > f.attributed) {
      util_->Add(f.wan_link, bucket, target - f.attributed);
      f.attributed = target;
    }
    cursor = end;
    ++bucket;
  }
}

void Network::SettleFlowResidual(Flow& f) {
  if (util_ == nullptr || f.wan_link < 0) return;
  const Bytes residual = f.total - f.attributed;
  if (residual > 0) {
    util_->Add(f.wan_link, util_->BucketOf(sim_.Now()), residual);
    f.attributed = f.total;
  }
}

void Network::CatchUpJitter() {
  if (!JitterEnabled()) return;
  const SimTime now = sim_.Now();
  bool drawn = false;
  while (last_resample_ + config_.jitter_interval <= now) {
    last_resample_ += config_.jitter_interval;
    drawn = true;
    for (int l = 0; l < topo_.num_wan_links(); ++l) {
      const WanLinkSpec& spec = topo_.wan_link(l);
      double deviation = wan_current_[l] - spec.base_rate;
      double fresh = jitter_rng_.Uniform(spec.min_rate, spec.max_rate);
      double next = spec.base_rate + kJitterMomentum * deviation +
                    (1 - kJitterMomentum) * (fresh - spec.base_rate);
      next = std::clamp(next, static_cast<double>(spec.min_rate),
                        static_cast<double>(spec.max_rate));
      wan_current_[l] = next;
      capacity_[WanRes(l)] = next * degrade_[l];
    }
  }
  if (drawn) {
    for (int l = 0; l < topo_.num_wan_links(); ++l) MarkResDirty(WanRes(l));
  }
}

void Network::MaintainJitterEvent() {
  if (!JitterEnabled()) return;
  if (tracked_flows_ == 0) {
    resample_event_.Cancel();
    return;
  }
  if (resample_event_.pending()) return;
  SimTime next_at = last_resample_ + config_.jitter_interval;
  if (next_at < sim_.Now()) next_at = sim_.Now();
  resample_event_ = sim_.ScheduleAt(next_at, [this] {
    // CatchUpJitter (via Reconfigure) performs the due draw and marks the
    // WAN resources dirty; Reconfigure then re-shares bandwidth under the
    // new capacities.
    Reconfigure();
  });
}

}  // namespace gs

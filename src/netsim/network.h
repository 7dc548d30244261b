// Flow-level wide-area network simulation.
//
// Each transfer is a fluid flow over up to three shared resources — the
// sender uplink NIC, one directed WAN link, and the receiver downlink NIC.
// Whenever the set of flows or a link capacity changes, rates are recomputed
// with progressive filling (max-min fairness) over the connected components
// of the flow/resource sharing graph that contain the perturbed resources,
// and only flows whose rate actually changed get their completion event
// rescheduled (docs/PERF.md, "Netsim hot path").
// This captures the two effects the paper builds on:
//
//  * a stage-barrier fetch start makes many flows share the bottleneck WAN
//    link simultaneously (Fig. 1a), while per-mapper pushes serialize onto
//    an otherwise idle link (Fig. 1b); and
//  * WAN capacity fluctuates over time (Sec. V-A), producing run-to-run
//    variance in job completion time (Fig. 7 error bars).
//
// WAN capacities follow a seeded, mean-reverting piecewise-constant trace,
// re-drawn every jitter_interval of simulated time. The trace is evaluated
// lazily (caught up on demand) so an idle network leaves the event queue
// empty and Simulator::Run() terminates.
//
// Components are maintained persistently (union on flow arrival, counted
// rebuild on departure) instead of being rediscovered by BFS at every
// solve, and flows live in an index-addressed slab instead of a hash map
// (docs/PERF.md §7).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/units.h"
#include "netsim/topology.h"
#include "netsim/utilization.h"
#include "simcore/simulator.h"

namespace gs {

// Accounting category for a flow, used by the traffic meters.
enum class FlowKind {
  kShuffleFetch,   // reducer fetching shuffle input (baseline Spark)
  kShufflePush,    // proactive push of shuffle input (transferTo)
  kCentralize,     // raw-input relocation (Centralized baseline)
  kCollect,        // results returned to the driver
  kStorePut,       // shard staged into an object-store tier (PUT leg)
  kStoreGet,       // staged shard read back by a consumer (GET leg)
  kFabric,         // RDMA-class intra-DC fabric transfer
  kCodedMulticast, // coded-shuffle multicast leg (docs/CODED.md)
  kOther,
};

const char* FlowKindName(FlowKind kind);

struct NetworkConfig {
  // Re-draw every WAN link capacity at this period. <= 0 disables jitter
  // (links stay at base_rate).
  SimTime jitter_interval = Seconds(5);
  // Weight of the previous deviation kept at each re-draw; 0 = i.i.d.
  // uniform draws, closer to 1 = smoother, mean-reverting traces.
  double jitter_momentum = 0.5;

  // Per-flow TCP behaviour on wide-area paths (Sec. V-A: "flash congestion
  // and temporarily lost connections are common"). Each WAN flow gets an
  // efficiency factor drawn uniformly from [wan_flow_efficiency_min, 1]
  // capping its share of the link (loss/RTT limits of a single connection),
  // and with probability wan_stall_prob its start is delayed by a stall of
  // [kWanStallMin, kWanStallMax] seconds (retransmission timeout /
  // reconnection). Barrier-synchronized fetches put these tails on the
  // critical path; pipelined pushes absorb them under the map stage.
  double wan_flow_efficiency_min = 0.6;
  double wan_stall_prob = 0.06;
};

// Bounds of the uniform WAN start stall (NetworkConfig::wan_stall_prob).
inline constexpr SimTime kWanStallMin = Seconds(2);
inline constexpr SimTime kWanStallMax = Seconds(10);

// Point-to-point transfer statistics per datacenter pair and flow kind.
class TrafficMeter {
 public:
  explicit TrafficMeter(int num_dcs);

  void Record(DcIndex src, DcIndex dst, FlowKind kind, Bytes bytes);

  // Bytes between distinct datacenters, all kinds.
  Bytes cross_dc_total() const;
  Bytes cross_dc_of_kind(FlowKind kind) const;
  Bytes pair_bytes(DcIndex src, DcIndex dst) const;

  // All bytes of one kind, intra-DC included (object-store fees bill the
  // staged volume, not just the cross-region part).
  Bytes total_of_kind(FlowKind kind) const;
  // The kStorePut/kStoreGet share of pair_bytes(src, dst). Store traffic
  // rides the provider backbone and is priced at the flat object-store
  // transfer rate instead of the per-region egress tariff, so pricing
  // subtracts it from the egress-billed pair bytes (netsim/pricing.h).
  Bytes store_pair_bytes(DcIndex src, DcIndex dst) const;

  void Reset();

 private:
  int num_dcs_;
  std::vector<Bytes> pair_bytes_;                  // [src * num_dcs + dst]
  std::vector<Bytes> store_pair_bytes_;            // same indexing
  std::unordered_map<int, Bytes> kind_cross_dc_;   // key: FlowKind
  std::unordered_map<int, Bytes> kind_total_;      // key: FlowKind
};

// Completed-flow record delivered to an observer (tracing/diagnostics).
struct FlowRecord {
  FlowId id = 0;
  NodeIndex src = kNoNode;
  NodeIndex dst = kNoNode;
  FlowKind kind = FlowKind::kOther;
  Bytes bytes = 0;
  SimTime started = 0;
  SimTime finished = 0;
};

class Network {
 public:
  using CompletionFn = std::function<void()>;
  using FlowObserverFn = std::function<void(const FlowRecord&)>;

  // `metrics` (optional) receives flow counters and byte histograms; it must
  // outlive the network.
  Network(Simulator& sim, const Topology& topo, NetworkConfig config,
          Rng jitter_rng, MetricsRegistry* metrics = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Starts a flow of `bytes` from node src to node dst. `on_complete` fires
  // (through the simulator) once the last byte arrives. A flow between a
  // node and itself completes after loopback latency without consuming
  // network bandwidth; it is still metered (intra-DC diagonal), counted in
  // the flow metrics, and cancellable like any other flow. Returns an id
  // usable with CancelFlow.
  FlowId StartFlow(NodeIndex src, NodeIndex dst, Bytes bytes, FlowKind kind,
                   CompletionFn on_complete);

  // Adds a shared "service" resource — a rate-limited tier that is not a
  // node NIC or WAN link (an object-store ingest/egress pipe, an intra-DC
  // RDMA fabric). Returns the resource index for FlowSpec::service_res.
  // Must be called before any flow starts; capacity must be positive and
  // finite. Service resources never jitter or degrade.
  int AddServiceResource(Rate capacity);

  // Generalized flow description for transport legs (engine/transport/)
  // that do not match the plain node-to-node shape: a leg may skip
  // either NIC (the far end is a storage tier, not a node), ride a service
  // resource, carry an extra setup latency (PUT/GET request round-trip,
  // histogram exchange) or a per-flow rate ceiling. The WAN leg — link
  // choice, TCP efficiency ceiling and stall draws — follows the node
  // datacenters. The plain overload is this spec with its defaults.
  struct FlowSpec {
    NodeIndex src = kNoNode;
    NodeIndex dst = kNoNode;
    Bytes bytes = 0;
    FlowKind kind = FlowKind::kOther;
    bool src_uplink = true;     // consume the sender's uplink NIC
    bool dst_downlink = true;   // consume the receiver's downlink NIC
    int service_res = -1;       // AddServiceResource index; -1 = none
    Rate rate_cap = 0;          // per-flow ceiling; 0 = uncapped
    SimTime extra_setup = 0;    // added to the rtt/2 (+ stall) setup time
  };

  // Starts a flow described by `spec`. A spec composing zero resources
  // (src == dst, or a same-DC spec skipping both NICs, with no service
  // resource) completes after loopback latency like a plain loopback flow,
  // without drawing from the jitter stream. At most three
  // resources may compose (solver invariant); a spec that would exceed
  // that is a programming error.
  FlowId StartFlow(const FlowSpec& spec, CompletionFn on_complete);

  // Cancels an in-flight flow (e.g. the destination task failed). Bytes
  // already transferred remain accounted in the traffic meter; the
  // completion callback never fires. A no-op for ids that already
  // completed, were already cancelled, or were never issued.
  void CancelFlow(FlowId id);

  // Starts a multicast transfer of `bytes` from `src` to every node in
  // `dsts`: one ordinary leg per *distinct receiving datacenter* (the
  // first-listed node of each DC receives it), sharing max-min bandwidth
  // with unicast flows and metered per leg like any other flow — so byte
  // conservation (meter vs utilization buckets) holds with no special
  // cases. A destination in the source's own datacenter rides the
  // intra-DC/loopback path. `on_complete` fires once, after the last leg's
  // final byte arrives. Duplicate destination DCs collapse into one leg.
  MulticastId StartMulticastFlow(NodeIndex src,
                                 const std::vector<NodeIndex>& dsts,
                                 Bytes bytes, FlowKind kind,
                                 CompletionFn on_complete);

  // Cancels every still-outstanding leg of a multicast group; the group
  // callback never fires. Like CancelFlow, bytes stay metered and the call
  // is a no-op for completed/cancelled/unknown ids.
  void CancelMulticastFlow(MulticastId id);

  bool has_multicast(MulticastId id) const {
    return multicasts_.count(id) > 0;
  }

  bool has_flow(FlowId id) const { return SlotOf(id) >= 0; }
  int active_flows() const { return tracked_flows_; }

  // Instantaneous max-min rate of a flow; 0 if unknown or still in setup.
  Rate flow_rate(FlowId id) const;

  // Current (possibly jittered and degraded) capacity of a directed WAN
  // link.
  Rate wan_capacity(DcIndex src, DcIndex dst);

  // Effective measured bandwidth of a directed WAN link: the current
  // (jittered and degraded) capacity minus the exponentially decayed
  // delivered throughput over the trailing `window` of utilization
  // buckets — i.e. the headroom a new transfer could expect, floored at a
  // small fraction of capacity so a saturated-but-healthy link still
  // reports progress. Falls back to wan_capacity when utilization
  // collection is off or `window` <= 0 (no measurements to subtract).
  // Reads only state the event loop already maintains, so calling it does
  // not perturb simulation results (engine/shuffle/receiver_placement.h).
  Rate EstimateWanBandwidth(DcIndex src, DcIndex dst, SimTime window);

  // Degrades a directed WAN link to `factor` x its jittered capacity until
  // the next call (fault injection: congestion events, link flaps).
  // factor = 1 restores the link; factor = 0 is a full outage — flows on
  // the link stall in place and resume when capacity returns. In-flight
  // progress is preserved and all rates are recomputed immediately.
  void SetWanDegradation(DcIndex src, DcIndex dst, double factor);

  const TrafficMeter& meter() const { return meter_; }
  TrafficMeter& meter() { return meter_; }

  // Invoked at each (non-loopback) flow completion. One observer at most.
  void SetFlowObserver(FlowObserverFn observer) {
    observer_ = std::move(observer);
  }

  const Topology& topology() const { return topo_; }

  // Starts recording the per-WAN-link utilization timeseries with the given
  // bucket width. Call before any flow starts; idempotent only in the sense
  // that a second call resets the series.
  void EnableUtilization(SimTime bucket_width);

  // Recorded timeseries, or nullptr when EnableUtilization was never called.
  const LinkUtilization* utilization() const { return util_.get(); }

 private:
  struct Flow {
    // Fields the component solver streams lead the struct so one flow's
    // solver inputs share a cache line.
    bool started = false;  // connection setup finished; contends for rate
    std::uint8_t nres = 0;
    std::int32_t res[3] = {-1, -1, -1};  // indices into capacity_
    // Order in which the flow entered contention (setup completed). The
    // solver freezes ties in this order; it also validates component
    // entries (a mismatch means the slot was recycled).
    std::int64_t contend_seq = -1;
    Rate rate = 0;
    Rate rate_cap = 0;  // per-flow TCP ceiling; 0 = uncapped

    FlowId id = 0;
    NodeIndex src = 0;
    NodeIndex dst = 0;
    FlowKind kind = FlowKind::kOther;
    double remaining = 0;  // bytes still to send
    Bytes total = 0;
    SimTime created_at = 0;
    SimTime last_update = 0;  // remaining is exact as of this time
    int wan_link = -1;     // directed WAN link index; -1 for intra-DC flows
    Bytes attributed = 0;  // bytes already credited to utilization buckets
    CompletionFn on_complete;
    EventHandle completion_event;
  };

  // A component entry names a flow by slab slot plus the contend_seq it
  // held when added; a mismatch marks the entry stale (flow finished, slot
  // possibly recycled). Entries stay sorted by seq — the contention order.
  struct CompEntry {
    std::int32_t slot;
    std::int64_t seq;
  };

  // Connected component of the bipartite flow/resource sharing graph,
  // maintained persistently: flows union their resources' components on
  // arrival (small-into-large, order-preserving merge); departures are
  // counted and trigger a rebuild — which re-splits drifted unions — once
  // they exceed max(kRebuildMinRemovals, live).
  struct Component {
    std::vector<CompEntry> entries;       // by seq; stale entries compacted
    std::vector<std::int32_t> resources;  // resources owned by this comp
    int live = 0;                         // non-stale entries
    int removed_since_rebuild = 0;
    std::int64_t dirty_token = 0;  // dedupe stamp for solve collection
    bool free = true;
  };

  // Solver scratch, reused by every component solve. Each dirty component
  // is solved and its rates applied before the next one is solved, so one
  // buffer serves them all.
  struct SolveScratch {
    std::vector<std::int32_t> slots;     // solve index -> slab slot
    std::vector<Rate> old_rate;
    std::vector<Rate> new_rate;
    // (tcp cap, solve idx) of the capped flows, unordered; frozen flows
    // are dropped lazily, by RescanCaps.
    std::vector<std::pair<double, int>> caps;
    // Smallest entry of `caps`: a lower bound over its unfrozen flows.
    std::pair<double, int> cap_bound;
    // The only heap of the solve: (share, resource), lazily invalidated.
    std::vector<std::pair<double, int>> share_heap;
    std::vector<char> frozen;
    std::vector<std::int32_t> res;       // 3 per flow, -1 padded
    // CSR per-resource member lists (solve indices, contention order).
    std::vector<std::int32_t> row_res;   // row -> resource
    std::vector<std::int32_t> offsets;
    std::vector<std::int32_t> cursor;
    std::vector<std::int32_t> members;
    // Resources whose fair share changed in the current filling step.
    std::vector<std::int32_t> changed;
    std::vector<char> changed_mark;      // per row
    std::int64_t starvation_guards = 0;
  };

  // Resource indexing: [0, N) node uplinks, [N, 2N) node downlinks,
  // [2N, 2N+L) WAN links, [2N+L, ...) service resources in registration
  // order (AddServiceResource). With no service resources the space is
  // exactly the historical 2N+L, so plain runs are bit-identical.
  int UplinkRes(NodeIndex n) const { return n; }
  int DownlinkRes(NodeIndex n) const { return topo_.num_nodes() + n; }
  int WanRes(int link_idx) const { return 2 * topo_.num_nodes() + link_idx; }
  int FirstServiceRes() const {
    return 2 * topo_.num_nodes() + topo_.num_wan_links();
  }

  std::int32_t SlotOf(FlowId id) const {
    return id >= 1 && static_cast<std::size_t>(id) < id_to_slot_.size()
               ? id_to_slot_[static_cast<std::size_t>(id)]
               : -1;
  }
  std::int32_t AllocSlot();
  // Takes a completed or cancelled flow out of contention and frees its
  // slot; its id no longer resolves.
  void RetireFlow(std::int32_t slot);

  // --- component maintenance (event thread only) ---
  Flow* EntryFlow(CompEntry e) {
    Flow& f = slab_[static_cast<std::size_t>(e.slot)];
    return f.started && f.contend_seq == e.seq ? &f : nullptr;
  }
  int AllocComponent();
  void ReleaseComponent(int c);
  // Unions the flow's resources' components (order-preserving merge) and
  // appends the flow; the flow must be started with contend_seq assigned.
  void AddFlowToComponent(std::int32_t slot);
  int MergeComponents(int a, int b);  // returns the surviving id
  void RemoveFlowFromComponent(const Flow& f);
  // Re-splits a drifted union: releases the component and re-inserts its
  // live flows in contention order (they re-union into however many real
  // components remain).
  void RebuildComponent(int c);

  // Catches up jitter, re-solves rates for the components containing the
  // dirty resources, and reschedules completion events whose rate changed.
  void Reconfigure();
  // Schedules a zero-delay Reconfigure unless one is already pending; lets
  // k same-instant perturbations (flow setups, completions) share a single
  // solver pass.
  void ScheduleDeferredReconfigure();

  // Progressive filling over one dirty component, writing rates into the
  // scratch only — no simulator or flow mutation. Compacts the component's
  // entry list.
  void SolveComponent(int c, SolveScratch& s);
  // Solves each component in dirty_comps_ and applies its rates before
  // solving the next, in collection order.
  void SolveAndApply(SimTime now);
  void FreezeOne(SolveScratch& s, int idx, Rate rate);
  void PushChangedShares(SolveScratch& s);
  // Drops the frozen flows from `caps` and resets `cap_bound` to the exact
  // minimum of the rest.
  void RescanCaps(SolveScratch& s);

  // Marks a resource as perturbed since the last solve.
  void MarkResDirty(int r);
  void MarkFlowResourcesDirty(const Flow& f);

  // Brings `remaining`/`last_update` up to `now` at the current rate,
  // attributing fluid progress to utilization buckets on the way.
  void AdvanceFlow(Flow& f, SimTime now);
  // Cancels and re-creates the completion event at now + remaining/rate.
  // Requires rate > 0 and last_update == now.
  void ScheduleCompletion(Flow& f, SimTime now);
  // Fires when a flow's completion event comes due: advances it, finishes
  // it if done, or queues it for rescheduling at the batched Reconfigure.
  void OnFlowDeadline(FlowId id);
  // Settles, records and frees the flow; defers the completion callback
  // and marks its resources dirty. Does not solve.
  void FinishFlow(std::int32_t slot);

  // Credits the flow's fluid progress over [from, to] (at its current rate)
  // to utilization buckets, using cumulative integer rounding so no byte is
  // lost or double-counted across bucket boundaries.
  void AttributeFlowProgress(Flow& f, SimTime from, SimTime to);
  // Settles the flow's unattributed remainder (total - attributed) into the
  // current bucket; called at completion and at cancellation to match the
  // meter's charge-at-start semantics.
  void SettleFlowResidual(Flow& f);

  // Advances the piecewise-constant WAN capacity traces up to Now().
  void CatchUpJitter();
  // Keeps a resample event scheduled iff flows are active.
  void MaintainJitterEvent();
  bool JitterEnabled() const {
    return config_.jitter_interval > 0 && topo_.num_wan_links() > 0;
  }

  // A multicast group is bookkeeping over ordinary legs: it owns no
  // resources and adds no solver state.
  struct MulticastGroup {
    int outstanding = 0;
    std::vector<FlowId> legs;
    CompletionFn on_complete;
  };
  void OnMulticastLegDone(MulticastId id);
  // Registers the multicast counters on first use. Lazy so runs that never
  // multicast keep their metric snapshots (and golden reports) unchanged.
  void EnsureMulticastMetrics();

  Simulator& sim_;
  const Topology& topo_;
  NetworkConfig config_;
  Rng jitter_rng_;
  TrafficMeter meter_;
  MetricsRegistry* metrics_ = nullptr;

  std::vector<Rate> capacity_;      // per resource, current (incl. degrade)
  std::vector<Rate> wan_current_;   // per WAN link, jittered capacity
  std::vector<double> degrade_;     // per WAN link, fault-injected factor
  SimTime last_resample_ = 0;       // trace evaluated up to this time
  EventHandle resample_event_;

  // Flow storage: an index-addressed slab with a free list; FlowIds are
  // issued sequentially, so id -> slot is a flat array, not a hash map.
  std::vector<Flow> slab_;
  std::vector<std::int32_t> free_slots_;
  std::vector<std::int32_t> id_to_slot_;
  int tracked_flows_ = 0;  // live slots (incl. loopback and in-setup flows)
  FlowId next_flow_id_ = 1;
  std::int64_t next_contend_seq_ = 0;
  FlowObserverFn observer_;

  // --- component + solver state ---
  std::vector<Component> comps_;
  std::vector<std::int32_t> comp_free_;
  std::vector<std::int32_t> res_comp_;  // per resource; -1 = unowned
  std::vector<CompEntry> merge_scratch_;
  std::vector<CompEntry> rebuild_entries_;

  std::vector<int> dirty_res_;  // resources perturbed since the last solve
  std::vector<std::int64_t> res_dirty_token_;
  std::int64_t dirty_token_ = 1;
  std::int64_t solve_token_ = 0;  // stamps Component::dirty_token
  bool reconfigure_pending_ = false;  // zero-delay batched solve scheduled
  // Flows whose deadline fired with residue left (float drift) but whose
  // rate did not change: they need their completion event re-created.
  std::vector<FlowId> pending_resched_;

  // Per-resource solver arrays, indexed by resource id; a solve resets
  // and reads only its own component's entries.
  std::vector<double> rem_cap_;
  std::vector<int> res_count_;              // unfrozen flows per resource
  std::vector<std::int32_t> res_row_;       // resource -> CSR row this solve
  std::vector<int> dirty_comps_;            // this solve, collection order
  SolveScratch scratch_;

  std::unique_ptr<LinkUtilization> util_;

  // Metric handles (nullptr when no registry was supplied). Updated only on
  // the event loop, so reported values are deterministic.
  Counter* m_flows_started_ = nullptr;
  Counter* m_flows_completed_ = nullptr;
  Counter* m_flows_cancelled_ = nullptr;
  Counter* m_wan_stalls_ = nullptr;
  Counter* m_rate_recomputes_ = nullptr;
  Counter* m_solver_flows_ = nullptr;
  Counter* m_reschedules_ = nullptr;
  Counter* m_starvation_guards_ = nullptr;
  Gauge* m_active_flows_ = nullptr;
  Histogram* m_fetch_bytes_ = nullptr;
  Histogram* m_push_bytes_ = nullptr;

  // Multicast state. Counters registered lazily (EnsureMulticastMetrics).
  std::unordered_map<MulticastId, MulticastGroup> multicasts_;
  MulticastId next_multicast_id_ = 1;
  Counter* m_multicasts_started_ = nullptr;
  Counter* m_multicasts_completed_ = nullptr;
  Counter* m_multicasts_cancelled_ = nullptr;
  Counter* m_multicast_legs_ = nullptr;
};

}  // namespace gs

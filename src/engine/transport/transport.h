// ShuffleTransport: the mechanism moving a produced shard's bytes to its
// consumers (docs/TRANSPORTS.md).
//
// The job runner owns shuffle *policy* — what to transfer, where the
// receiver lives, retry/fallback/fetch-failure recovery (epoch guards) —
// and the transport owns the *mechanism*: which netsim flows carry the
// bytes, over which resources, and when the landing callback fires. The
// contract:
//
//  * Transfer() is called once per remote shuffle leg (fetch or push),
//    after the runner has done its per-job traffic accounting for the
//    logical src -> dst movement. Co-located handoffs never reach the
//    transport (the runner short-circuits them, Sec. IV-C2).
//  * `on_landed` must eventually fire through the simulator, exactly once.
//    It is epoch-guarded by the runner: if the destination task was
//    restarted meanwhile, the callback no-ops and the in-flight bytes are
//    wasted — the same semantics as a stale direct fetch, so recovery
//    (fetch-failure re-validation, push retry, push -> fetch fallback)
//    works unchanged under every kind.
//  * Non-shuffle kinds (cache/source reads the runner also routes here)
//    always take the direct node-to-node path; only kShuffleFetch and
//    kShufflePush legs depend on the kind.
//
// The kinds are a closed set (TransportKind), picked by one switch per
// Transfer():
//   kDirect      — plain node-to-node flows, the paper's model.
//   kObjectStore — PUT to a storage tier, then GET to the consumer once
//                  the PUT lands; trades JCT for egress dollars.
//   kFabric      — RDMA-class legs inside one datacenter; WAN legs stay
//                  direct.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/metrics_registry.h"
#include "common/units.h"
#include "engine/run_config.h"
#include "netsim/network.h"

namespace gs {

// One shuffle leg: `bytes` of shard data moving from the node holding them
// to the node consuming them. `kind` is the logical accounting category
// (kShuffleFetch / kShufflePush for shuffle legs; kOther for cache and
// source reads, which always move directly).
struct ShardTransfer {
  NodeIndex src = kNoNode;
  NodeIndex dst = kNoNode;
  Bytes bytes = 0;
  FlowKind kind = FlowKind::kOther;
  std::function<void()> on_landed;  // epoch-guarded by the job runner
};

class ShuffleTransport {
 public:
  // Registers the kind's service resources against `net`, one per
  // datacenter in datacenter order (object-store tiers or fabrics; none
  // for kDirect), so no flow may have started yet. `scale` divides the
  // configured full-scale rates like every other capacity
  // (RunConfig::scale). `metrics` may be null; otherwise every
  // transport.* counter is registered, whatever the kind.
  ShuffleTransport(const TransportConfig& config, double scale, Network& net,
                   MetricsRegistry* metrics);

  ShuffleTransport(const ShuffleTransport&) = delete;
  ShuffleTransport& operator=(const ShuffleTransport&) = delete;

  // Moves the shard; consumes t.on_landed.
  void Transfer(ShardTransfer t);

 private:
  // kObjectStore: the PUT into the staging datacenter's tier, chained to
  // the GET out of it.
  void Stage(ShardTransfer t);

  TransportConfig config_;
  Network& net_;
  // Per-datacenter service resource: the store tier or the fabric.
  std::vector<int> service_res_;
  // kObjectStore: the node whose address stands in for each datacenter's
  // tier endpoint (fixes the DC for RTT and WAN-link routing of PUT/GET
  // legs).
  std::vector<NodeIndex> store_addr_;
  Counter* store_puts_ = nullptr;
  Counter* store_gets_ = nullptr;
  Counter* fabric_transfers_ = nullptr;
};

}  // namespace gs

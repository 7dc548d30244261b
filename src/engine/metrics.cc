#include "engine/metrics.h"

#include "netsim/network.h"

namespace gs {

void JobMetrics::AccountFlow(const Topology& topo, NodeIndex src,
                             NodeIndex dst, Bytes bytes, FlowKind kind) {
  if (topo.dc_of(src) == topo.dc_of(dst)) return;
  switch (kind) {
    case FlowKind::kShuffleFetch:
      cross_dc_fetch_bytes += bytes;
      break;
    case FlowKind::kShufflePush:
      cross_dc_push_bytes += bytes;
      break;
    case FlowKind::kCentralize:
      cross_dc_centralize_bytes += bytes;
      break;
    case FlowKind::kCodedMulticast:
      // Accounted per leg (one call per receiving datacenter), mirroring
      // the TrafficMeter's per-leg charge.
      coded_multicast_bytes += bytes;
      break;
    case FlowKind::kCollect:
      // Driver traffic is excluded from the paper's Fig. 8 metric.
      return;
    case FlowKind::kStorePut:
    case FlowKind::kStoreGet:
    case FlowKind::kFabric:
      // Transport-internal kinds never reach per-job accounting: the
      // runner accounts the logical fetch/push before handing the leg to
      // the transport (so these metrics mean the same under every
      // backend).
      return;
    case FlowKind::kOther:
      break;
  }
  cross_dc_bytes += bytes;
}

}  // namespace gs

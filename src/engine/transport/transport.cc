#include "engine/transport/transport.h"

#include <utility>

#include "common/check.h"
#include "netsim/topology.h"

namespace gs {

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect:
      return "direct";
    case TransportKind::kObjectStore:
      return "objstore";
    case TransportKind::kFabric:
      return "fabric";
  }
  GS_CHECK_MSG(false, "unknown transport kind");
  return "?";
}

ShuffleTransport::ShuffleTransport(const TransportConfig& config,
                                   double scale, Network& net,
                                   MetricsRegistry* metrics)
    : config_(config), net_(net) {
  GS_CHECK(scale > 0);
  if (metrics != nullptr) {
    store_puts_ = &metrics->counter("transport.store_puts");
    store_gets_ = &metrics->counter("transport.store_gets");
    fabric_transfers_ = &metrics->counter("transport.fabric_transfers");
  }
  const Topology& topo = net_.topology();
  switch (config_.kind) {
    case TransportKind::kDirect:
      break;
    case TransportKind::kObjectStore:
      for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
        service_res_.push_back(
            net_.AddServiceResource(config_.object_store.rate / scale));
        GS_CHECK_MSG(!topo.nodes_in(dc).empty(), "datacenter has no nodes");
        store_addr_.push_back(topo.nodes_in(dc).front());
      }
      break;
    case TransportKind::kFabric:
      for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
        service_res_.push_back(
            net_.AddServiceResource(config_.fabric.rate / scale));
      }
      break;
  }
}

void ShuffleTransport::Transfer(ShardTransfer t) {
  const bool shuffle = t.kind == FlowKind::kShuffleFetch ||
                       t.kind == FlowKind::kShufflePush;
  const Topology& topo = net_.topology();
  switch (shuffle ? config_.kind : TransportKind::kDirect) {
    case TransportKind::kDirect:
      break;
    case TransportKind::kObjectStore:
      Stage(std::move(t));
      return;
    case TransportKind::kFabric: {
      // One-sided writes land in pre-registered receive areas: both NICs
      // are bypassed and the datacenter's fabric is shared instead, after
      // the histogram exchange that sizes the areas. RDMA does not survive
      // WAN RTTs, so a cross-datacenter leg takes the direct TCP path.
      const DcIndex dc = topo.dc_of(t.src);
      if (t.src == t.dst || dc != topo.dc_of(t.dst)) break;
      Network::FlowSpec spec;
      spec.src = t.src;
      spec.dst = t.dst;
      spec.bytes = t.bytes;
      spec.kind = FlowKind::kFabric;
      spec.src_uplink = false;
      spec.dst_downlink = false;
      spec.service_res = service_res_[dc];
      spec.extra_setup = config_.fabric.exchange_latency;
      if (fabric_transfers_ != nullptr) fabric_transfers_->Add(1);
      net_.StartFlow(spec, std::move(t.on_landed));
      return;
    }
  }
  net_.StartFlow(t.src, t.dst, t.bytes, t.kind, std::move(t.on_landed));
}

// A leg src -> dst becomes two chained flows:
//
//   PUT  src -> store(dc):  sender uplink (+ WAN if the bucket is remote)
//                           + the store tier's shared service resource;
//   GET  store(dc) -> dst:  the service resource (+ WAN if dst is remote)
//                           + receiver downlink, started when the PUT
//                           completes.
//
// Each leg adds the request round-trip to its connection setup. By default
// (ObjectStoreConfig::dc == kNoDc) each shard stages in its producer's
// datacenter, so the PUT is DC-local and only the GET crosses the WAN —
// cross-DC volume matches the direct kind while every byte additionally
// funnels through the tier's aggregate rate. The store-and-forward
// barrier, the request latencies and that shared tier cap make this kind
// slower than direct; it is cheaper because staged cross-region bytes ride
// the provider backbone at ObjectStoreTariff rates instead of the
// internet-egress tariff (netsim/pricing.h).
void ShuffleTransport::Stage(ShardTransfer t) {
  const DcIndex store_dc = config_.object_store.dc == kNoDc
                               ? net_.topology().dc_of(t.src)
                               : config_.object_store.dc;

  Network::FlowSpec put;
  put.src = t.src;
  put.dst = store_addr_[store_dc];
  put.bytes = t.bytes;
  put.kind = FlowKind::kStorePut;
  put.src_uplink = true;
  put.dst_downlink = false;  // the tier's service resource is the sink
  put.service_res = service_res_[store_dc];
  put.extra_setup = config_.object_store.request_latency;
  if (store_puts_ != nullptr) store_puts_->Add(1);

  net_.StartFlow(
      put, [this, store_dc, dst = t.dst, bytes = t.bytes,
            cb = std::move(t.on_landed)]() mutable {
        Network::FlowSpec get;
        get.src = store_addr_[store_dc];
        get.dst = dst;
        get.bytes = bytes;
        get.kind = FlowKind::kStoreGet;
        get.src_uplink = false;  // served by the tier, not a worker NIC
        get.dst_downlink = true;
        get.service_res = service_res_[store_dc];
        get.extra_setup = config_.object_store.request_latency;
        if (store_gets_ != nullptr) store_gets_->Add(1);
        net_.StartFlow(get, std::move(cb));
      });
}

}  // namespace gs

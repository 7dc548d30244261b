#include "engine/shuffle/coded_exchange.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace gs {

std::unique_ptr<CodedExchange> CodedExchange::Make(GeoCluster& cluster,
                                                   JobMetrics& metrics) {
  if (!cluster.config().coded.enabled) return nullptr;
  return std::make_unique<CodedExchange>(cluster, metrics);
}

CodedExchange::CodedExchange(GeoCluster& cluster, JobMetrics& metrics)
    : cluster_(cluster), topo_(cluster.topology()), metrics_(metrics) {}

int CodedExchange::R() const {
  return std::min(cluster_.config().coded.redundancy_r,
                  topo_.num_datacenters());
}

NodeIndex CodedExchange::NodeInDc(DcIndex dc, int salt) const {
  std::vector<NodeIndex> workers;
  for (NodeIndex n : topo_.nodes_in(dc)) {
    if (topo_.node(n).worker) workers.push_back(n);
  }
  if (workers.empty()) return kNoNode;
  const int count = static_cast<int>(workers.size());
  for (int i = 0; i < count; ++i) {
    const NodeIndex cand = workers[(salt + i) % count];
    if (cluster_.scheduler().node_up(cand)) return cand;
  }
  return workers[salt % count];
}

void CodedExchange::PutReplicaOutputs(
    ShuffleId sid, int map_partition, NodeIndex primary,
    const std::vector<RecordsPtr>& shard_records,
    const std::vector<Bytes>& shard_bytes) {
  const int num_dcs = topo_.num_datacenters();
  const DcIndex primary_dc = topo_.dc_of(primary);
  for (int j = 1; j < R(); ++j) {
    const DcIndex dc = (primary_dc + j) % num_dcs;
    const NodeIndex mirror = NodeInDc(dc, map_partition);
    if (mirror == kNoNode || !cluster_.scheduler().node_up(mirror)) continue;
    for (int k = 0; k < static_cast<int>(shard_records.size()); ++k) {
      cluster_.blocks().PutWithSize(mirror,
                                    BlockId::Shuffle(sid, map_partition, k),
                                    shard_records[k], shard_bytes[k]);
    }
  }
}

void CodedExchange::ChargeReplicas(const Stage& stage, SimTime cpu) {
  if (stage.output == StageOutputKind::kShuffleWrite) {
    metrics_.coded_replica_compute_seconds += (R() - 1) * cpu;
  }
}

bool CodedExchange::Defer(const Stage& stage, std::function<void()> done) {
  if (stage.output != StageOutputKind::kShuffleWrite ||
      stage.consumer_shuffle == nullptr) {
    return false;
  }
  Exchange& ex = exchanges_[stage.id];
  if (ex.done) return false;
  ex.on_done = std::move(done);
  Start(stage.id, stage.consumer_shuffle->shuffle().id);
  return true;
}

void CodedExchange::Start(StageId id, ShuffleId sid) {
  Exchange& ex = exchanges_[id];
  MapOutputTracker& tracker = cluster_.tracker();
  const int num_maps = tracker.num_map_partitions(sid);
  const int num_shards = tracker.num_shards(sid);
  const int num_dcs = topo_.num_datacenters();
  const int r = R();

  ex.pending = 1;  // guard, released once every transfer is launched

  // Ring replica set of map m: the primary's datacenter plus the next r-1.
  auto in_ring = [&](DcIndex d, DcIndex primary) {
    return ((d - primary) % num_dcs + num_dcs) % num_dcs < r;
  };
  std::vector<DcIndex> primary_dc(num_maps, kNoDc);
  for (int m = 0; m < num_maps; ++m) {
    const NodeIndex p = tracker.primary_node(sid, m);
    if (p != kNoNode) primary_dc[m] = topo_.dc_of(p);
  }
  auto holds = [&](int m, DcIndex d) {
    return primary_dc[m] != kNoDc && in_ring(d, primary_dc[m]);
  };

  struct Segment {
    int m = 0;
    int k = 0;
    DcIndex home = 0;         // datacenter the shard consolidates into
    NodeIndex dst = kNoNode;  // landing node inside `home`
    Bytes bytes = 0;
  };
  std::vector<Segment> wan;  // segments with no replica in their home DC

  std::vector<std::vector<NodeIndex>>& prefs = prefs_[sid];
  prefs.assign(num_shards, {});

  // Per-shard replica-inclusive shares: share[k][d] counts every segment
  // of shard k with a ring replica in datacenter d (free for k there).
  std::vector<std::vector<Bytes>> share(
      num_shards, std::vector<Bytes>(num_dcs, 0));
  for (int m = 0; m < num_maps; ++m) {
    if (primary_dc[m] == kNoDc) continue;
    for (int k = 0; k < num_shards; ++k) {
      const Bytes b = tracker.Output(sid, m, k).bytes;
      for (int j = 0; j < r; ++j) {
        share[k][(primary_dc[m] + j) % num_dcs] += b;
      }
    }
  }

  // Home assignment: argmax of the share, so every byte replicated into
  // the home stays off the WAN (on a point-to-point mesh the XOR multicast
  // is byte-neutral, so locality is where the entire WAN saving comes
  // from). One wrinkle: under a hash partitioner all shards see
  // statistically identical per-DC distributions, so a pure argmax can
  // collapse every home into one datacenter — and the XOR grouping below
  // needs pairwise-distinct, ring-compatible homes to form any group. Two
  // homes h, h' can anchor a group iff primaries p_a, p_b exist whose
  // rings make the pair mutually decodable with a common serving DC.
  auto pairable = [&](DcIndex h, DcIndex hp) {
    if (h == hp) return true;  // trivially co-homed; never anchors a group
    for (DcIndex pa = 0; pa < num_dcs; ++pa) {
      if (!in_ring(hp, pa) || in_ring(h, pa)) continue;
      for (DcIndex pb = 0; pb < num_dcs; ++pb) {
        if (!in_ring(h, pb) || in_ring(hp, pb)) continue;
        for (DcIndex c = 0; c < num_dcs; ++c) {
          if (in_ring(c, pa) && in_ring(c, pb)) return true;
        }
      }
    }
    return false;
  };
  std::vector<DcIndex> home_of(num_shards, kNoDc);
  for (int k = 0; k < num_shards; ++k) {
    DcIndex home = 0;
    for (DcIndex d = 1; d < num_dcs; ++d) {
      if (share[k][d] > share[k][home]) home = d;
    }
    home_of[k] = home;
  }
  // If no two assigned homes can anchor a group, re-home the single shard
  // with the smallest byte regret to the compatible datacenter closest to
  // its argmax share — minimal diversification, bounded byte cost.
  bool diverse = false;
  for (int a = 0; a < num_shards && !diverse; ++a) {
    for (int b = a + 1; b < num_shards && !diverse; ++b) {
      diverse = home_of[a] != home_of[b] && pairable(home_of[a], home_of[b]);
    }
  }
  if (!diverse && num_shards >= 2) {
    int best_k = -1;
    DcIndex best_d = kNoDc;
    Bytes best_regret = 0;
    for (int k = 0; k < num_shards; ++k) {
      for (DcIndex d = 0; d < num_dcs; ++d) {
        if (d == home_of[k]) continue;
        bool anchors = false;
        for (int o = 0; o < num_shards && !anchors; ++o) {
          anchors = o != k && home_of[o] != d && pairable(home_of[o], d);
        }
        if (!anchors) continue;
        const Bytes regret = share[k][home_of[k]] - share[k][d];
        if (best_k < 0 || regret < best_regret) {
          best_k = k;
          best_d = d;
          best_regret = regret;
        }
      }
    }
    if (best_k >= 0) home_of[best_k] = best_d;
  }

  for (int k = 0; k < num_shards; ++k) {
    const DcIndex home = home_of[k];
    const NodeIndex landing = NodeInDc(home, k);
    if (landing == kNoNode) continue;  // workerless datacenter

    // Reduce-side preference: the landing node first, then the other
    // workers of the home datacenter. SubmitTask pins coded reducers to
    // the preferred nodes' datacenters (kDcOnly), so every listed node
    // must keep the consolidated shard read off the WAN — a busy landing
    // node spills to a neighbour in the same datacenter, never to a
    // remote one that would re-fetch the whole shard cross-DC.
    prefs[k].push_back(landing);
    for (NodeIndex n : topo_.nodes_in(home)) {
      if (n != landing && topo_.node(n).worker) prefs[k].push_back(n);
    }

    for (int m = 0; m < num_maps; ++m) {
      const MapOutputLocation& out = tracker.Output(sid, m, k);
      if (out.node == kNoNode || primary_dc[m] == kNoDc) continue;
      if (out.bytes == 0) {
        // Nothing to move; land the (empty) block so gathers find it.
        DeliverSegment(sid, m, k, out.node, landing);
        continue;
      }
      Segment seg;
      seg.m = m;
      seg.k = k;
      seg.home = home;
      seg.dst = landing;
      seg.bytes = out.bytes;
      if (holds(m, home)) {
        // A replica already sits in the home datacenter: consolidate onto
        // the landing node with an intra-DC copy (NIC time, no WAN).
        const NodeIndex holder =
            home == primary_dc[m] ? out.node : NodeInDc(home, m);
        if (holder != kNoNode &&
            cluster_.blocks().Has(holder, BlockId::Shuffle(sid, m, k))) {
          metrics_.coded_local_bytes += out.bytes;
          if (holder == landing) {
            DeliverSegment(sid, m, k, holder, landing);
            continue;
          }
          ++ex.pending;
          cluster_.network().StartFlow(
              holder, landing, out.bytes, FlowKind::kOther,
              [this, id, sid, seg, holder] {
                DeliverSegment(sid, seg.m, seg.k, holder, seg.dst);
                TransferDone(id);
              });
          continue;
        }
        // The in-home replica vanished (mirror died): fall through to WAN.
      }
      wan.push_back(seg);
    }
  }

  // XOR groups (Coded MapReduce): up to r segments with pairwise
  // distinct home datacenters, replicated together in some serving
  // datacenter, where each receiver already holds every other member — so
  // one multicast of the shortest member's length serves the whole group
  // and each home XORs out its own segment. Longer members' uncoded tails
  // go unicast. Greedy and deterministic over (shard, map) order.
  // Serving datacenter of `members`: the smallest index replicating every
  // one of them, or kNoDc.
  auto serving_dc = [&](const std::vector<std::size_t>& members) {
    for (DcIndex c = 0; c < num_dcs; ++c) {
      bool all = true;
      for (std::size_t g : members) all = all && holds(wan[g].m, c);
      if (all) return c;
    }
    return kNoDc;
  };
  int groups = 0;
  std::vector<bool> used(wan.size(), false);
  for (std::size_t i = 0; i < wan.size(); ++i) {
    if (used[i]) continue;
    std::vector<std::size_t> group = {i};
    for (std::size_t j = i + 1;
         j < wan.size() && static_cast<int>(group.size()) < r; ++j) {
      if (used[j]) continue;
      bool ok = true;
      for (std::size_t g : group) {
        if (wan[g].home == wan[j].home || !holds(wan[g].m, wan[j].home) ||
            !holds(wan[j].m, wan[g].home)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      group.push_back(j);
      if (serving_dc(group) == kNoDc) group.pop_back();
    }
    for (std::size_t g : group) used[g] = true;

    if (group.size() < 2) {
      // Ungroupable: plain unicast of the whole segment from its primary.
      const Segment& seg = wan[i];
      const NodeIndex primary = tracker.primary_node(sid, seg.m);
      metrics_.coded_residual_bytes += seg.bytes;
      metrics_.AccountFlow(topo_, primary, seg.dst, seg.bytes,
                           FlowKind::kShuffleFetch);
      ++ex.pending;
      cluster_.network().StartFlow(
          primary, seg.dst, seg.bytes, FlowKind::kShuffleFetch,
          [this, id, sid, seg, primary] {
            DeliverSegment(sid, seg.m, seg.k, primary, seg.dst);
            TransferDone(id);
          });
      continue;
    }

    // The coder node is the first member's holder in the serving datacenter
    // (intra-DC assembly of the other members' segments is not charged —
    // see docs/CODED.md).
    const DcIndex serve = serving_dc(group);
    GS_CHECK(serve != kNoDc);
    const Segment& first = wan[group[0]];
    const NodeIndex coder = serve == primary_dc[first.m]
                                ? tracker.primary_node(sid, first.m)
                                : NodeInDc(serve, first.m);
    Bytes packet = first.bytes;
    for (std::size_t g : group) packet = std::min(packet, wan[g].bytes);

    ++groups;
    ++metrics_.coded_groups;
    // A member's block lands once both its coded packet (the multicast
    // completing) and its uncoded tail arrived.
    struct PendingDelivery {
      Segment seg;
      NodeIndex holder = kNoNode;
      int parts = 0;
    };
    auto pend = std::make_shared<std::vector<PendingDelivery>>();
    std::vector<NodeIndex> dsts;
    for (std::size_t g : group) {
      const Segment& seg = wan[g];
      dsts.push_back(seg.dst);
      metrics_.AccountFlow(topo_, coder, seg.dst, packet,
                           FlowKind::kCodedMulticast);
      pend->push_back({seg, tracker.primary_node(sid, seg.m),
                       seg.bytes > packet ? 2 : 1});
    }
    ex.pending += static_cast<int>(group.size());
    auto part_done = [this, id, sid, pend](std::size_t idx) {
      PendingDelivery& p = (*pend)[idx];
      if (--p.parts > 0) return;
      DeliverSegment(sid, p.seg.m, p.seg.k, p.holder, p.seg.dst);
      TransferDone(id);
    };
    cluster_.network().StartMulticastFlow(
        coder, dsts, packet, FlowKind::kCodedMulticast,
        [part_done, n = pend->size()] {
          for (std::size_t x = 0; x < n; ++x) part_done(x);
        });
    for (std::size_t idx = 0; idx < pend->size(); ++idx) {
      const PendingDelivery& p = (*pend)[idx];
      const Bytes tail = p.seg.bytes - packet;
      if (tail <= 0) continue;
      metrics_.coded_residual_bytes += tail;
      metrics_.AccountFlow(topo_, p.holder, p.seg.dst, tail,
                           FlowKind::kShuffleFetch);
      cluster_.network().StartFlow(p.holder, p.seg.dst, tail,
                                   FlowKind::kShuffleFetch,
                                   [part_done, idx] { part_done(idx); });
    }
  }

  GS_LOG_INFO << "coded exchange: stage " << id << " shuffle " << sid << ": "
              << groups << " multicast group(s), " << ex.pending - 1
              << " transfer(s) in flight";
  TransferDone(id);  // release the guard
}

void CodedExchange::DeliverSegment(ShuffleId sid, int m, int k,
                                   NodeIndex holder, NodeIndex dst) {
  if (!cluster_.tracker().MapOutputRegistered(sid, m)) {
    return;  // invalidated while the transfer was in flight
  }
  const BlockId bid = BlockId::Shuffle(sid, m, k);
  std::optional<Block> b = cluster_.blocks().Get(holder, bid);
  if (!b) {
    // The source copy vanished mid-flight (crash): leave the tracker
    // alone; a reducer's fetch failure triggers the normal recovery.
    return;
  }
  if (holder != dst) {
    cluster_.blocks().PutWithSize(dst, bid, b->records, b->bytes);
  }
  cluster_.tracker().RelocateShard(sid, m, k, dst);
}

void CodedExchange::TransferDone(StageId id) {
  Exchange& ex = exchanges_.at(id);
  GS_CHECK(ex.pending > 0);
  if (--ex.pending > 0) return;
  ex.done = true;
  ex.on_done();
}

void CodedExchange::AppendAlternates(ShuffleId sid, int shard,
                                     std::vector<NodeIndex>* prefs) const {
  auto it = prefs_.find(sid);
  if (it == prefs_.end() ||
      shard >= static_cast<int>(it->second.size())) {
    return;
  }
  for (NodeIndex n : it->second[shard]) {
    if (std::find(prefs->begin(), prefs->end(), n) == prefs->end()) {
      prefs->push_back(n);
    }
  }
}

}  // namespace gs

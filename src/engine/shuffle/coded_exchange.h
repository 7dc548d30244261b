// CodedExchange: one job's coded shuffle (docs/CODED.md).
//
// Exists only under CodedConfig::enabled (Make returns nullptr otherwise),
// and JobRunner calls it at four points of the task lifecycle:
//  * map output registered: PutReplicaOutputs mirrors the blocks, and
//    ChargeReplicas bills the replicated executions' compute;
//  * shuffle-write stage drained: Defer runs the exchange before the stage
//    is marked done;
//  * reducer preference list: AppendAlternates adds the exchange's r-way
//    alternates, and JobRunner schedules coded reducers kDcOnly.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dag/stage.h"
#include "engine/cluster.h"

namespace gs {

class CodedExchange {
 public:
  // The job's exchange, or nullptr when coding is off. Flows are accounted
  // and the coded_* counters kept in `metrics`.
  static std::unique_ptr<CodedExchange> Make(GeoCluster& cluster,
                                             JobMetrics& metrics);
  CodedExchange(GeoCluster& cluster, JobMetrics& metrics);
  // Flow callbacks hold its address.
  CodedExchange(const CodedExchange&) = delete;
  CodedExchange& operator=(const CodedExchange&) = delete;

  // Mirrors a finished map partition's shuffle blocks onto one node in
  // each of the r-1 datacenters after the primary's on the ring (the
  // replicated map executions' outputs; their compute is charged by
  // ChargeReplicas).
  void PutReplicaOutputs(ShuffleId sid, int map_partition, NodeIndex primary,
                         const std::vector<RecordsPtr>& shard_records,
                         const std::vector<Bytes>& shard_bytes);
  // Coded shuffle buys WAN locality with compute: each replicated map
  // partition executes r times (once per replica datacenter, in parallel
  // on spare slots, so the stage span is unchanged), and the job pays
  // (r-1) extra copies of a shuffle-write task's `cpu` seconds — the cost
  // side of bench_coded's crossover (docs/CODED.md).
  void ChargeReplicas(const Stage& stage, SimTime cpu);
  // A shuffle-write stage completes only after the coded exchange
  // consolidated every shard at its home datacenter — the barrier the
  // reduce stage's placement and gathers rely on. On the stage's first
  // drain, starts the exchange and returns true; `done` runs once it
  // drained. The exchange runs once; a re-completion after fetch-failure
  // recovery returns false (the re-registered outputs are simply fetched
  // from their producer).
  bool Defer(const Stage& stage, std::function<void()> done);
  // Extends a reduce shard's preference list with the exchange's r-way
  // alternates (landing node first, then the largest replica holders).
  void AppendAlternates(ShuffleId sid, int shard,
                        std::vector<NodeIndex>* prefs) const;

 private:
  // One shuffle-write stage's exchange: `pending` counts the transfers
  // still in flight (plus the launch guard).
  struct Exchange {
    int pending = 0;
    bool done = false;
    std::function<void()> on_done;
  };

  // Effective replication degree: redundancy_r clamped to the DC count.
  int R() const;
  // Deterministic worker pick inside `dc` (salted round-robin, preferring
  // live nodes); kNoNode for a workerless datacenter. Chooses both the
  // mirror node holding map partition m's replica (salt = m) and the
  // landing node consolidating shard k (salt = k).
  NodeIndex NodeInDc(DcIndex dc, int salt) const;
  // The shuffle exchange, run when a shuffle-write stage's last task
  // finishes and before the stage is marked done: picks each shard's home
  // datacenter, serves segments replicated there locally, XOR-multicasts
  // decodable groups of the rest and unicasts the residue, re-pointing the
  // tracker at the landing nodes so reducer gathers read locally.
  void Start(StageId id, ShuffleId sid);
  // Copies segment (m, k) from `holder` onto `dst` and re-points the
  // tracker; a vanished source copy is left for fetch-failure recovery.
  void DeliverSegment(ShuffleId sid, int m, int k, NodeIndex holder,
                      NodeIndex dst);
  // One exchange transfer landed; completes the deferred stage when the
  // last one drains.
  void TransferDone(StageId id);

  GeoCluster& cluster_;
  const Topology& topo_;
  JobMetrics& metrics_;
  std::unordered_map<StageId, Exchange> exchanges_;
  // Per-shard r-way reducer preference lists built by the exchange: the
  // landing node first, then the nodes holding the largest replica share
  // of the shard (fallbacks if the landing node is lost or busy).
  std::unordered_map<ShuffleId, std::vector<std::vector<NodeIndex>>> prefs_;
};

}  // namespace gs

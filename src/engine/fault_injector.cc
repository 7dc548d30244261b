#include "engine/fault_injector.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "engine/cluster.h"

namespace gs {

FaultInjector::FaultInjector(GeoCluster& cluster, const FaultPlan& plan,
                             Rng rng)
    : cluster_(cluster), plan_(plan), rng_(std::move(rng)) {
  Simulator& sim = cluster_.simulator();
  const Topology& topo = cluster_.topology();

  for (const NodeCrashEvent& e : plan_.node_crashes) {
    GS_CHECK(e.node >= 0 && e.node < topo.num_nodes());
    GS_CHECK_MSG(topo.node(e.node).worker, "FaultPlan crashes a non-worker");
    sim.ScheduleAt(e.at, [this, e] {
      cluster_.CrashNode(e.node, e.restart_after);
    });
  }

  for (const LinkDegradationEvent& e : plan_.link_degradations) {
    GS_CHECK(e.src != kNoDc && e.dst != kNoDc && e.src != e.dst);
    GS_CHECK(e.factor >= 0);
    sim.ScheduleAt(e.at, [this, e] {
      GS_LOG_INFO << "link degradation: dc" << e.src << "->dc" << e.dst
                  << " x" << e.factor
                  << (e.symmetric ? " (both directions)" : "");
      // Routed through the cluster so executing jobs hear about the flap
      // and adaptive runners can replan (docs/ADAPTIVE.md).
      cluster_.SetWanDegradation(e.src, e.dst, e.factor, e.symmetric);
    });
    if (e.duration > 0) {
      sim.ScheduleAt(e.at + e.duration, [this, e] {
        GS_LOG_INFO << "link restored: dc" << e.src << "->dc" << e.dst;
        cluster_.SetWanDegradation(e.src, e.dst, 1.0, e.symmetric);
      });
    }
  }

  for (const BlockLossEvent& e : plan_.block_losses) {
    GS_CHECK(e.node >= 0 && e.node < topo.num_nodes());
    sim.ScheduleAt(e.at, [this, e] {
      GS_LOG_INFO << "block loss on "
                  << cluster_.topology().node(e.node).name;
      cluster_.LoseShuffleBlocks(e.node);
    });
  }

  if (plan_.random_crashes.mean_interarrival > 0) {
    GS_CHECK_MSG(plan_.random_crashes.restart_after > 0,
                 "random crashes must restart (the cluster would drain)");
    ScheduleNextRandomCrash();
  }
}

void FaultInjector::ScheduleNextRandomCrash() {
  if (fired_crashes_ >= plan_.random_crashes.max_crashes) return;
  const SimTime gap =
      rng_.Exponential(plan_.random_crashes.mean_interarrival);
  cluster_.simulator().Schedule(gap, [this] { FireRandomCrash(); });
}

void FaultInjector::FireRandomCrash() {
  const Topology& topo = cluster_.topology();
  std::vector<NodeIndex> victims;
  for (NodeIndex n = 0; n < topo.num_nodes(); ++n) {
    if (topo.node(n).worker && cluster_.scheduler().node_up(n)) {
      victims.push_back(n);
    }
  }
  if (!victims.empty()) {
    const NodeIndex victim = victims[static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(victims.size()) - 1))];
    ++fired_crashes_;
    cluster_.CrashNode(victim, plan_.random_crashes.restart_after);
  }
  ScheduleNextRandomCrash();
}

}  // namespace gs

// FaultPlan: a declarative schedule of infrastructure faults to inject.
//
// The paper's resilience claim (Fig. 2, Sec. IV) is that Push/Aggregate
// turns shuffle recovery from a wide-area re-fetch into a datacenter-local
// re-read. A FaultPlan lets any bench or test script the failures that
// exercise that claim: executor/node crashes (scheduled or random), WAN
// link degradation and flaps, and lost map-output blocks. The plan is part
// of RunConfig (RunConfig::fault.plan); GeoCluster materializes it into
// simulator events through the FaultInjector at construction time.
//
// All times are absolute simulated times (seconds since simulation start,
// shared across the jobs run on one GeoCluster).
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace gs {

// Crash of one worker node at a scheduled time. The node's executor slots
// disappear, every block it stored (shuffle files and cached partitions) is
// lost, and tasks running on it are rescheduled elsewhere.
// Lost *map outputs* are discovered lazily, as in Spark: the driver keeps
// them registered until a reducer's fetch fails.
struct NodeCrashEvent {
  SimTime at = 0;
  NodeIndex node = kNoNode;
  // > 0: a fresh executor rejoins on the same host after this long (its
  // slots return; lost blocks stay lost). 0 = the node never comes back.
  SimTime restart_after = 0;
};

// Degrades one directed WAN link to `factor` x its (jittered) capacity for
// `duration`, then restores it. factor = 0 models a full outage: flows on
// the link stall and resume when capacity returns (TCP keeps the
// connection; the simulator keeps the flow). `symmetric` applies the same
// degradation to the reverse link.
struct LinkDegradationEvent {
  SimTime at = 0;
  DcIndex src = kNoDc;
  DcIndex dst = kNoDc;
  double factor = 1.0;
  SimTime duration = 0;  // 0 = permanent
  bool symmetric = true;
};

// Silently drops the shuffle blocks stored on a node (disk corruption /
// shuffle-service restart) without killing its executor. Discovered at
// fetch time like a crash's losses.
struct BlockLossEvent {
  SimTime at = 0;
  NodeIndex node = kNoNode;
};

// Poisson-process random crashes: worker crashes arrive with the given
// mean inter-arrival time; victims are drawn uniformly from the live
// workers. Crashed nodes rejoin after `restart_after` (must be > 0 so a
// long chaos run cannot drain the cluster).
struct RandomCrashSpec {
  SimTime mean_interarrival = 0;  // 0 = disabled
  SimTime restart_after = Seconds(30);
  int max_crashes = 4;
};

struct FaultPlan {
  std::vector<NodeCrashEvent> node_crashes;
  std::vector<LinkDegradationEvent> link_degradations;
  std::vector<BlockLossEvent> block_losses;
  RandomCrashSpec random_crashes;

  bool empty() const {
    return node_crashes.empty() && link_degradations.empty() &&
           block_losses.empty() && random_crashes.mean_interarrival <= 0;
  }
};

}  // namespace gs

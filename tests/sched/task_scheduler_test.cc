#include "sched/task_scheduler.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

// Two datacenters with two 2-core workers each, plus a driver.
Topology TestTopo() {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"a1", 0, 2, Gbps(1)});
  topo.AddNode({"b0", 1, 2, Gbps(1)});
  topo.AddNode({"b1", 1, 2, Gbps(1)});
  topo.AddNode({"driver", 0, 4, Gbps(1), /*worker=*/false});
  return topo;
}

struct Assignment {
  NodeIndex node = kNoNode;
  LocalityLevel locality{};
  double at = -1;
  bool assigned = false;
};

TaskRequest Req(Assignment* slot, Simulator* sim,
                std::vector<NodeIndex> preferred = {},
                PlacementPolicy policy = PlacementPolicy::kAnyAfterWait) {
  TaskRequest r;
  r.preferred = std::move(preferred);
  r.policy = policy;
  r.on_assigned = [slot, sim](NodeIndex node, LocalityLevel locality) {
    slot->node = node;
    slot->locality = locality;
    slot->at = sim->Now();
    slot->assigned = true;
  };
  return r;
}

TEST(TaskSchedulerTest, InitialSlotsExcludeDriver) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  EXPECT_EQ(sched.free_slots(0), 2);
  EXPECT_EQ(sched.free_slots(4), 0);  // driver hosts no tasks
}

TEST(TaskSchedulerTest, PrefersExactNode) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment a;
  sched.Submit(Req(&a, &sim, {1}));
  sim.Run();
  EXPECT_EQ(a.node, 1);
  EXPECT_EQ(a.locality, LocalityLevel::kNodeLocal);
}

TEST(TaskSchedulerTest, FallsBackToSameDatacenter) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  // Fill node 1 completely.
  Assignment fillers[2];
  sched.Submit(Req(&fillers[0], &sim, {1}));
  sched.Submit(Req(&fillers[1], &sim, {1}));
  Assignment a;
  sched.Submit(Req(&a, &sim, {1}));
  sim.Run();
  EXPECT_EQ(a.node, 0) << "should fall back to the other dc0 worker";
  EXPECT_EQ(a.locality, LocalityLevel::kDcLocal);
}

TEST(TaskSchedulerTest, DelaySchedulingWaitsBeforeGoingAnywhere) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskSchedulerConfig cfg;
  cfg.locality_wait = 3.0;
  TaskScheduler sched(sim, topo, cfg);
  // Fill all of dc0.
  Assignment fillers[4];
  for (auto& f : fillers) sched.Submit(Req(&f, &sim, {0, 1}));
  Assignment a;
  sched.Submit(Req(&a, &sim, {0}));
  sim.Run();
  EXPECT_TRUE(a.assigned);
  EXPECT_EQ(a.locality, LocalityLevel::kAny);
  EXPECT_GE(a.at, 3.0) << "must wait out the locality delay";
  EXPECT_EQ(topo.dc_of(a.node), 1);
}

TEST(TaskSchedulerTest, FreedPreferredSlotBeatsTheWait) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskSchedulerConfig cfg;
  cfg.locality_wait = 30.0;
  TaskScheduler sched(sim, topo, cfg);
  Assignment fillers[4];
  for (auto& f : fillers) sched.Submit(Req(&f, &sim, {0, 1}));
  Assignment a;
  sched.Submit(Req(&a, &sim, {0}));
  sim.Schedule(1.0, [&] { sched.ReleaseSlot(0); });
  sim.Run();
  EXPECT_EQ(a.node, 0);
  EXPECT_NEAR(a.at, 1.0, 1e-9);
  EXPECT_EQ(a.locality, LocalityLevel::kNodeLocal);
}

TEST(TaskSchedulerTest, DcOnlyPolicyNeverLeaves) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskSchedulerConfig cfg;
  cfg.locality_wait = 1.0;
  TaskScheduler sched(sim, topo, cfg);
  Assignment fillers[4];
  for (auto& f : fillers) sched.Submit(Req(&f, &sim, {0, 1}));
  Assignment a;
  sched.Submit(Req(&a, &sim, {0}, PlacementPolicy::kDcOnly));
  sim.RunUntil(10.0);
  EXPECT_FALSE(a.assigned) << "kDcOnly must not spill to dc1";
  sched.ReleaseSlot(1);
  sim.Run();
  EXPECT_TRUE(a.assigned);
  EXPECT_EQ(topo.dc_of(a.node), 0);
}

TEST(TaskSchedulerTest, NodeOnlyPolicyWaitsForExactNode) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment fillers[2];
  sched.Submit(Req(&fillers[0], &sim, {2}));
  sched.Submit(Req(&fillers[1], &sim, {2}));
  Assignment a;
  sched.Submit(Req(&a, &sim, {2}, PlacementPolicy::kNodeOnly));
  sim.RunUntil(10.0);
  EXPECT_FALSE(a.assigned);
  sched.ReleaseSlot(2);
  sim.Run();
  EXPECT_EQ(a.node, 2);
}

TEST(TaskSchedulerTest, NoPreferenceGoesToLeastLoaded) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment first;
  sched.Submit(Req(&first, &sim, {0}));
  sim.Run();
  Assignment a;
  sched.Submit(Req(&a, &sim));
  sim.Run();
  EXPECT_NE(a.node, kNoNode);
  EXPECT_NE(a.node, 0) << "node 0 has fewer free slots";
  EXPECT_EQ(a.locality, LocalityLevel::kNoPreference);
}

TEST(TaskSchedulerTest, QueueDrainsInSubmissionOrderPerSlot) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  // Fill node 0.
  Assignment fillers[2];
  sched.Submit(Req(&fillers[0], &sim, {0}, PlacementPolicy::kNodeOnly));
  sched.Submit(Req(&fillers[1], &sim, {0}, PlacementPolicy::kNodeOnly));
  Assignment q1, q2;
  sched.Submit(Req(&q1, &sim, {0}, PlacementPolicy::kNodeOnly));
  sched.Submit(Req(&q2, &sim, {0}, PlacementPolicy::kNodeOnly));
  sim.Run();
  EXPECT_FALSE(q1.assigned);
  sched.ReleaseSlot(0);
  sim.Run();
  EXPECT_TRUE(q1.assigned);
  EXPECT_FALSE(q2.assigned) << "FIFO among equal preferences";
}

TEST(TaskSchedulerTest, NoHeadOfLineBlocking) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment fillers[2];
  sched.Submit(Req(&fillers[0], &sim, {0}, PlacementPolicy::kNodeOnly));
  sched.Submit(Req(&fillers[1], &sim, {0}, PlacementPolicy::kNodeOnly));
  Assignment blocked, free_task;
  sched.Submit(Req(&blocked, &sim, {0}, PlacementPolicy::kNodeOnly));
  sched.Submit(Req(&free_task, &sim, {1}));
  sim.Run();
  EXPECT_FALSE(blocked.assigned);
  EXPECT_TRUE(free_task.assigned) << "a later satisfiable task must not "
                                     "wait behind an unsatisfiable one";
}

TEST(TaskSchedulerTest, BusySlotAccounting) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment a, b;
  sched.Submit(Req(&a, &sim, {0}));
  sched.Submit(Req(&b, &sim, {2}));
  sim.Run();
  EXPECT_EQ(sched.busy_slots_in(0), 1);
  EXPECT_EQ(sched.busy_slots_in(1), 1);
  sched.ReleaseSlot(a.node);
  EXPECT_EQ(sched.busy_slots_in(0), 0);
}

TEST(TaskSchedulerTest, OverReleaseThrows) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  EXPECT_THROW(sched.ReleaseSlot(0), CheckFailure);
  EXPECT_THROW(sched.ReleaseSlot(4), CheckFailure);  // driver
}

TEST(TaskSchedulerTest, BadPreferredNodeThrows) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment a;
  EXPECT_THROW(sched.Submit(Req(&a, &sim, {99})), CheckFailure);
}

// --- UpdatePreferences: re-pointing a queued request (docs/ADAPTIVE.md) ---

TEST(TaskSchedulerTest, UpdatePreferencesRepointsQueuedRequest) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  // Fill node 2 so a kNodeOnly request for it parks in the queue.
  Assignment fillers[2];
  sched.Submit(Req(&fillers[0], &sim, {2}));
  sched.Submit(Req(&fillers[1], &sim, {2}));
  Assignment stuck;
  TaskRequest r = Req(&stuck, &sim, {2}, PlacementPolicy::kNodeOnly);
  r.id = 42;
  sched.Submit(std::move(r));
  sim.RunUntil(5.0);
  ASSERT_FALSE(stuck.assigned);

  // Drop the pin: the request immediately drains to any free slot.
  EXPECT_TRUE(
      sched.UpdatePreferences(42, {}, PlacementPolicy::kAnyAfterWait));
  sim.Run();
  EXPECT_TRUE(stuck.assigned);
  EXPECT_NE(stuck.node, 2) << "node 2 is still full";
}

TEST(TaskSchedulerTest, UpdatePreferencesUnknownOrGrantedIdIsFalse) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  Assignment a;
  TaskRequest r = Req(&a, &sim, {0});
  r.id = 7;
  sched.Submit(std::move(r));
  sim.Run();
  ASSERT_TRUE(a.assigned);
  // Granted requests left the queue; unknown ids were never in it.
  EXPECT_FALSE(sched.UpdatePreferences(7, {}, PlacementPolicy::kAnyAfterWait));
  EXPECT_FALSE(
      sched.UpdatePreferences(99, {}, PlacementPolicy::kAnyAfterWait));
}

// --- weighted fair sharing across tenants (docs/SERVICE.md) ---

// Saturate a 12-slot cluster with two tenants at weights 2:1, each task
// holding its slot for one second. Once churn starts, freed slots go to
// the tenant with the smaller busy/weight share, so the standing split
// settles at 8:4 and so does throughput while both queues stay
// backlogged. (12 slots so the 2:1 split is exact in whole slots.)
TEST(TaskSchedulerTest, WeightedFairShareUnderSaturation) {
  Simulator sim;
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddNode({"a0", 0, 3, Gbps(1)});
  topo.AddNode({"a1", 0, 3, Gbps(1)});
  topo.AddNode({"b0", 1, 3, Gbps(1)});
  topo.AddNode({"b1", 1, 3, Gbps(1)});
  TaskScheduler sched(sim, topo);
  sched.SetTenantWeight(1, 2.0);
  sched.SetTenantWeight(2, 1.0);

  int completed[3] = {0, 0, 0};
  auto submit = [&](int tenant) {
    TaskRequest r;
    r.tenant = tenant;
    r.on_assigned = [&, tenant](NodeIndex node, LocalityLevel) {
      sim.ScheduleAt(sim.Now() + Seconds(1), [&, tenant, node] {
        ++completed[tenant];
        sched.ReleaseSlot(node, tenant);
      });
    };
    sched.Submit(std::move(r));
  };
  for (int i = 0; i < 40; ++i) {
    submit(1);
    submit(2);
  }

  // Snapshot mid-run, while both tenants are still saturated. The first
  // wave of slots is granted FIFO at submission (6/6) before any churn,
  // so throughput is measured between two steady-state snapshots.
  int busy1 = -1, busy2 = -1;
  int base1 = -1, base2 = -1, done1 = -1, done2 = -1;
  sim.ScheduleAt(Seconds(1.5), [&] {
    base1 = completed[1];
    base2 = completed[2];
  });
  sim.ScheduleAt(Seconds(4.5), [&] {
    busy1 = sched.tenant_busy(1);
    busy2 = sched.tenant_busy(2);
    done1 = completed[1];
    done2 = completed[2];
  });
  sim.Run();

  EXPECT_EQ(busy1 + busy2, 12) << "cluster must stay saturated";
  EXPECT_GE(busy1, 7);
  EXPECT_LE(busy2, 5);
  // Throughput over the steady-state window follows the slot share: ~2:1
  // with both queues backlogged.
  const int delta1 = done1 - base1, delta2 = done2 - base2;
  EXPECT_GE(delta1, 2 * delta2 - 2);
  EXPECT_LE(delta1, 2 * delta2 + 2);
  // Everyone finishes eventually; no slot is leaked.
  EXPECT_EQ(completed[1] + completed[2], 80);
  EXPECT_EQ(sched.tenant_busy(1), 0);
  EXPECT_EQ(sched.tenant_busy(2), 0);
  EXPECT_EQ(sched.queued_tasks(), 0);
}

// Raising a tenant's weight mid-run shifts subsequent offers: with equal
// backlogs and equal weights the split is even; after SetTenantWeight the
// favored tenant converges to the larger share.
TEST(TaskSchedulerTest, SetTenantWeightRebalancesOffers) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);

  int held = 0;
  auto submit = [&](int tenant) {
    TaskRequest r;
    r.tenant = tenant;
    r.on_assigned = [&, tenant](NodeIndex node, LocalityLevel) {
      ++held;
      sim.ScheduleAt(sim.Now() + Seconds(1), [&, tenant, node] {
        sched.ReleaseSlot(node, tenant);
      });
    };
    sched.Submit(std::move(r));
  };
  for (int i = 0; i < 30; ++i) {
    submit(1);
    submit(2);
  }
  int even1 = -1, even2 = -1;
  sim.ScheduleAt(Seconds(2.5), [&] {
    even1 = sched.tenant_busy(1);
    even2 = sched.tenant_busy(2);
    sched.SetTenantWeight(1, 3.0);
  });
  int skew1 = -1, skew2 = -1;
  sim.ScheduleAt(Seconds(5.5), [&] {
    skew1 = sched.tenant_busy(1);
    skew2 = sched.tenant_busy(2);
  });
  sim.Run();

  EXPECT_EQ(even1, 4);
  EXPECT_EQ(even2, 4);
  EXPECT_GE(skew1, 5) << "weight 3:1 should shift the split";
  EXPECT_LE(skew2, 3);
}

// A freed slot whose most-entitled tenant can't use it (its head tasks are
// pinned to a full node) must fall through to the next tenant rather than
// idle the slot.
TEST(TaskSchedulerTest, OfferFallsThroughWhenFavoredTenantCannotPlace) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskScheduler sched(sim, topo);
  sched.SetTenantWeight(1, 10.0);  // tenant 1 is strongly favored
  sched.SetTenantWeight(2, 1.0);

  // Fill the whole cluster with tenant-2 tasks.
  std::vector<NodeIndex> held;
  for (int i = 0; i < 8; ++i) {
    TaskRequest r;
    r.tenant = 2;
    r.on_assigned = [&](NodeIndex node, LocalityLevel) {
      held.push_back(node);
    };
    sched.Submit(std::move(r));
  }
  sim.Run();
  ASSERT_EQ(held.size(), 8u);

  // Tenant 1 queues a task pinned to node 0; tenant 2 queues a flexible
  // one. Then a slot frees on node 3: tenant 1 is far more entitled but
  // cannot take it, so tenant 2 must.
  Assignment pinned, flexible;
  TaskRequest p = Req(&pinned, &sim, {0}, PlacementPolicy::kNodeOnly);
  p.tenant = 1;
  sched.Submit(std::move(p));
  TaskRequest f = Req(&flexible, &sim);
  f.tenant = 2;
  sched.Submit(std::move(f));
  sched.ReleaseSlot(3, 2);
  sim.Run();

  EXPECT_FALSE(pinned.assigned);
  EXPECT_TRUE(flexible.assigned);
  EXPECT_EQ(flexible.node, 3);

  // Node 0 frees: the pinned tenant-1 task finally places.
  sched.ReleaseSlot(0, 2);
  sim.Run();
  EXPECT_TRUE(pinned.assigned);
  EXPECT_EQ(pinned.node, 0);
}

// --- grant order under saturation ---

// "id@node:L ", L being N (node-local), D (DC-local), A (any) or P (no
// preference).
std::string GrantLabel(int id, NodeIndex node, LocalityLevel locality) {
  static constexpr char kLevel[] = {'N', 'D', 'A', 'P'};
  return std::to_string(id) + "@" + std::to_string(node) + ":" +
         kLevel[static_cast<int>(locality)] + " ";
}

// Three datacenters (two, two and one 2-core workers), three tenants at
// weights 1:2:3, and a mix of placement preferences: none, a node of the
// crowded dc0 (node-local, DC-local or a spill after the wait), a dc1 node
// under kDcOnly, and the lone dc2 node under kNodeOnly. Every slot is
// taken at once; each task then holds its slot for its own duration, so
// slots free one at a time. The whole (task id, node, locality) grant
// sequence is pinned.
TEST(TaskSchedulerTest, GrantOrderUnderSaturationIsPinned) {
  Simulator sim;
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  topo.AddDatacenter("dc2");
  topo.AddNode({"a0", 0, 2, Gbps(1)});
  topo.AddNode({"a1", 0, 2, Gbps(1)});
  topo.AddNode({"b0", 1, 2, Gbps(1)});
  topo.AddNode({"b1", 1, 2, Gbps(1)});
  topo.AddNode({"c0", 2, 2, Gbps(1)});
  TaskSchedulerConfig cfg;
  cfg.locality_wait = 3.0;
  TaskScheduler sched(sim, topo, cfg);
  sched.SetTenantWeight(1, 2.0);
  sched.SetTenantWeight(2, 3.0);

  std::string grants;
  int granted = 0;
  for (int i = 0; i < 36; ++i) {
    TaskRequest r;
    r.id = i;
    r.tenant = i % 3;
    switch (i % 6) {
      case 0: break;
      case 1: r.preferred = {0}; break;
      case 2: r.preferred = {0, 1}; break;
      case 3:
        r.preferred = {2};
        r.policy = PlacementPolicy::kDcOnly;
        break;
      case 4:
        r.preferred = {4};
        r.policy = PlacementPolicy::kNodeOnly;
        break;
      case 5: r.preferred = {1}; break;
    }
    const SimTime hold = 0.5 + (i * 7 % 11) * 0.37;
    r.on_assigned = [&, i, tenant = r.tenant, hold](NodeIndex node,
                                                    LocalityLevel locality) {
      grants += GrantLabel(i, node, locality);
      ++granted;
      sim.Schedule(hold, [&sched, node, tenant] {
        sched.ReleaseSlot(node, tenant);
      });
    };
    sched.Submit(std::move(r));
  }
  sim.Run();

  EXPECT_EQ(granted, 36);
  EXPECT_EQ(sched.queued_tasks(), 0);
  EXPECT_EQ(grants,
            "0@0:P 1@0:N 2@1:N 3@2:N 4@4:N 5@1:N 6@3:P 9@2:N 10@4:N "
            "12@3:P 8@0:N 11@1:N 14@0:N 17@1:N 20@1:N 16@4:N 22@4:N 7@0:N "
            "23@3:A 13@4:A 19@4:A 26@2:A 15@3:D 25@4:A 18@2:P 28@4:N 29@1:N "
            "32@1:N 31@0:N 35@0:D 21@3:D 24@2:P 27@3:D 30@2:P 33@2:N 34@4:N ");
  for (const char* level : {":N", ":D", ":A", ":P"}) {
    EXPECT_NE(grants.find(level), std::string::npos) << level;
  }

  // Ties on free slots go to the first candidate in preference order: at
  // the preferred nodes (task 36, both nodes empty) and across the
  // datacenters of the preferred nodes (task 42, one free slot each on
  // nodes 1 and 3).
  grants.clear();
  const std::vector<std::vector<NodeIndex>> tail_prefs = {
      {1, 0}, {0}, {0}, {3}, {2}, {2}, {0, 2}, {}};
  for (std::size_t k = 0; k < tail_prefs.size(); ++k) {
    const int id = 36 + static_cast<int>(k);
    TaskRequest r;
    r.id = id;
    r.preferred = tail_prefs[k];
    r.on_assigned = [&grants, id](NodeIndex node, LocalityLevel locality) {
      grants += GrantLabel(id, node, locality);
    };
    sched.Submit(std::move(r));
  }
  sim.Run();
  EXPECT_EQ(grants,
            "36@1:N 37@0:N 38@0:N 39@3:N 40@2:N 41@2:N 42@1:D 43@4:P ");
}

// With every slot taken, a Pump (here from Submit and from the locality
// wait's wake-up) assigns nothing. The wake-up must still have been
// scheduled: a task whose preferred datacenter stays full spills at its
// exact spill time once a slot elsewhere is free, and a task whose wait
// ran out while nothing was free spills as soon as a slot frees.
TEST(TaskSchedulerTest, PumpWithNoFreeSlotAssignsNothingButKeepsWakeups) {
  Simulator sim;
  Topology topo = TestTopo();
  TaskSchedulerConfig cfg;
  cfg.locality_wait = 3.0;
  TaskScheduler sched(sim, topo, cfg);
  Assignment fillers[8];
  for (auto& f : fillers) sched.Submit(Req(&f, &sim));
  sim.Run();
  for (const auto& f : fillers) ASSERT_TRUE(f.assigned);

  // Task x waits out its locality wait with zero free slots.
  Assignment x;
  sched.Submit(Req(&x, &sim, {0}));
  sched.SetTenantWeight(0, 2.0);  // another Pump, still nothing free
  sim.RunUntil(5.0);
  EXPECT_FALSE(x.assigned);
  EXPECT_EQ(sched.queued_tasks(), 1);
  sched.ReleaseSlot(2);  // dc1: not near x's preference
  sim.Run();
  EXPECT_TRUE(x.assigned);
  EXPECT_EQ(x.node, 2);
  EXPECT_EQ(x.locality, LocalityLevel::kAny);
  EXPECT_EQ(x.at, 5.0);

  // Task y is submitted with zero free slots; a dc1 slot frees before its
  // wait is over, so only the wake-up at its spill time can place it.
  Assignment y;
  sched.Submit(Req(&y, &sim, {1}));
  const SimTime spill_at = sim.Now() + cfg.locality_wait;
  sim.Schedule(1.0, [&] { sched.ReleaseSlot(3); });
  sim.RunUntil(sim.Now() + 2.0);
  EXPECT_FALSE(y.assigned);
  EXPECT_EQ(sched.free_slots(3), 1);
  sim.Run();
  EXPECT_TRUE(y.assigned);
  EXPECT_EQ(y.node, 3);
  EXPECT_EQ(y.locality, LocalityLevel::kAny);
  EXPECT_EQ(y.at, spill_at);
  EXPECT_EQ(sched.queued_tasks(), 0);
}

}  // namespace
}  // namespace gs

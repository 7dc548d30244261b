// Regression tests for the incremental rate-sharing hot path
// (docs/PERF.md, "Netsim hot path"): batched reconfiguration when many
// flows finish at one instant, and the starvation guards that keep a flow
// from being stranded with no (or an unrepresentable) completion deadline.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace gs {
namespace {

// Two datacenters, two nodes each, deterministic capacities.
Topology TestTopo(Rate nic = MiB(10), Rate wan = MiB(1),
                  SimTime rtt = Millis(100)) {
  Topology topo;
  topo.AddDatacenter("dc0");
  topo.AddDatacenter("dc1");
  for (int i = 0; i < 2; ++i) {
    topo.AddNode({"a" + std::to_string(i), 0, 2, nic});
  }
  for (int i = 0; i < 2; ++i) {
    topo.AddNode({"b" + std::to_string(i), 1, 2, nic});
  }
  topo.AddWanLink({0, 1, wan, wan, wan, rtt});
  topo.AddWanLink({1, 0, wan, wan, wan, rtt});
  return topo;
}

NetworkConfig Quiet() {
  NetworkConfig cfg;
  cfg.jitter_interval = 0;
  cfg.wan_flow_efficiency_min = 1.0;
  cfg.wan_stall_prob = 0;
  return cfg;
}

// Satellite bugfix 1: k flows finishing at one instant used to cost k full
// solver passes (each FinishFlow re-entered Reconfigure). The whole batch
// must now settle with one deferred solve per instant: one when the equal
// flows enter contention together, one when they all finish together.
TEST(HotpathRegressionTest, SimultaneousCompletionsSolveOnce) {
  constexpr int kFlows = 32;
  Simulator sim;
  Topology topo = TestTopo();
  MetricsRegistry metrics;
  Network net(sim, topo, Quiet(), Rng(1), &metrics);

  std::vector<double> done_at;
  for (int i = 0; i < kFlows; ++i) {
    // Identical endpoints and sizes: identical setup latency, bit-identical
    // max-min rates, so all completions land on the same instant.
    net.StartFlow(0, 2, MiB(1), FlowKind::kOther,
                  [&done_at, &sim] { done_at.push_back(sim.Now()); });
  }
  sim.Run();

  ASSERT_EQ(done_at.size(), static_cast<std::size_t>(kFlows));
  for (double t : done_at) EXPECT_EQ(t, done_at[0]);
  EXPECT_EQ(metrics.counter("netsim.flows_completed").value(), kFlows);
  // One solve for the setup batch, one for the completion batch. The old
  // cascade performed a pass per finishing flow (kFlows + 1 here).
  const std::int64_t solves =
      metrics.counter("netsim.rate_recomputes").value();
  EXPECT_GE(solves, 1);
  EXPECT_LE(solves, 3) << "simultaneous completions must share one solve";
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Satellite bugfix 2 (zero-rate starvation), representable-overflow form:
// a capacity driven down to a denormal yields a positive-but-absurd rate
// whose remaining/rate deadline overflows to infinity. The old code
// scheduled that event; when nothing else perturbed the network it fired,
// dragged the clock to infinity and "completed" the flow there. The flow
// must instead stall in place like any full outage and resume when the
// link recovers.
TEST(HotpathRegressionTest, DenormalCapacityStallsInsteadOfInfinity) {
  Simulator sim;
  Topology topo = TestTopo();
  MetricsRegistry metrics;
  Network net(sim, topo, Quiet(), Rng(1), &metrics);

  double done_at = -1;
  FlowId id = net.StartFlow(0, 2, MiB(4), FlowKind::kOther,
                            [&done_at, &sim] { done_at = sim.Now(); });
  sim.RunUntil(1.0);  // mid-transfer (needs ~4s at 1 MiB/s)
  net.SetWanDegradation(0, 1, 5e-324);  // denormal share, infinite deadline
  sim.Run();

  // The run must quiesce with the flow stalled, not complete at t=inf.
  EXPECT_EQ(done_at, -1) << "flow completed at t=" << done_at;
  EXPECT_TRUE(net.has_flow(id));
  EXPECT_TRUE(std::isfinite(sim.Now()));
  EXPECT_EQ(sim.pending_events(), 0u);

  // Capacity returns: the stalled flow resumes with its progress intact
  // and finishes in finite time.
  net.SetWanDegradation(0, 1, 1.0);
  sim.Run();
  EXPECT_GT(done_at, 0);
  EXPECT_TRUE(std::isfinite(done_at));
  EXPECT_FALSE(net.has_flow(id));
  EXPECT_LT(done_at, 10.0);
  EXPECT_EQ(metrics.counter("netsim.flows_completed").value(), 1);
}

// The starvation guard's pure zero-share case: a resource with positive
// capacity must never hand out a zero rate (stranding the flow with no
// completion event); a full outage (capacity exactly zero) must still
// stall. Driven through degradation factors, the only API that can pin a
// capacity exactly.
TEST(HotpathRegressionTest, ZeroFactorOutageStallsAndResumes) {
  Simulator sim;
  Topology topo = TestTopo();
  Network net(sim, topo, Quiet(), Rng(1));

  double done_at = -1;
  net.StartFlow(0, 2, MiB(2), FlowKind::kOther,
                [&done_at, &sim] { done_at = sim.Now(); });
  sim.RunUntil(1.0);
  net.SetWanDegradation(0, 1, 0.0);  // full outage: legitimate stall
  sim.Run();
  EXPECT_EQ(done_at, -1);
  EXPECT_TRUE(std::isfinite(sim.Now()));

  net.SetWanDegradation(0, 1, 1.0);
  sim.Run();
  // ~0.95 MiB sent in the first second (after 50 ms setup); the remaining
  // ~1.05 MiB resumes at full rate after restoration.
  EXPECT_TRUE(std::isfinite(done_at));
  EXPECT_GT(done_at, 1.0);
  EXPECT_LT(done_at, 4.0);
}

// Rate-unchanged flows keep their completion event: a perturbation in one
// connected component must not touch flows in another (tentpole (b)+(c)).
// The long flow's completion time must be the bit-identical double whether
// or not an unrelated component churns underneath it.
TEST(HotpathRegressionTest, DisjointComponentsDoNotPerturbEachOther) {
  // Two independent DC pairs: dc0->dc1 and dc2->dc3 share no resource.
  auto make_topo = [] {
    Topology topo;
    for (int d = 0; d < 4; ++d) {
      topo.AddDatacenter("dc" + std::to_string(d));
      topo.AddNode({"n" + std::to_string(d), d, 2, MiB(10)});
    }
    topo.AddWanLink({0, 1, MiB(1), MiB(1), MiB(1), Millis(100)});
    topo.AddWanLink({2, 3, MiB(1), MiB(1), MiB(1), Millis(100)});
    return topo;
  };

  auto run = [&make_topo](bool churn, int* churn_completed) {
    Simulator sim;
    Topology topo = make_topo();
    Network net(sim, topo, Quiet(), Rng(1));
    double done_at = -1;
    net.StartFlow(2, 3, MiB(8), FlowKind::kOther,
                  [&done_at, &sim] { done_at = sim.Now(); });
    if (churn) {
      for (int i = 0; i < 8; ++i) {
        sim.RunUntil(0.5 * (i + 1));
        net.StartFlow(0, 1, MiB(1) / 4, FlowKind::kOther,
                      [churn_completed] { ++*churn_completed; });
      }
    }
    sim.Run();
    return done_at;
  };

  int churn_completed = 0;
  const double solo = run(false, nullptr);
  const double churned = run(true, &churn_completed);
  EXPECT_EQ(churn_completed, 8);
  EXPECT_GT(solo, 0);
  // Exact (bitwise) equality: the churning component must never advance,
  // re-rate, or reschedule the long flow.
  EXPECT_EQ(solo, churned);
}

// Same-instant completions across components fire in the order their
// components were solved: a batched solve re-rates its dirty components in
// dirty-collection order (the order their resources were first perturbed),
// rescheduling each component's flows before moving to the next, and
// equal deadlines fire FIFO. Flows started interleaved across two disjoint
// components therefore complete grouped by component, not in start order.
TEST(HotpathRegressionTest, SameInstantCompletionsFollowComponentOrder) {
  // dc0->dc1 and dc2->dc3 share no resource. A flow of size 2S alone on a
  // link and two flows of size S sharing one both finish at 2S / rate, an
  // exact double, so every flow of a phase finishes at one instant.
  Topology topo;
  for (int d = 0; d < 4; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
    topo.AddNode({"n" + std::to_string(d), d, 2, MiB(10)});
  }
  topo.AddWanLink({0, 1, MiB(1), MiB(1), MiB(1), Millis(100)});
  topo.AddWanLink({2, 3, MiB(1), MiB(1), MiB(1), Millis(100)});
  Simulator sim;
  Network net(sim, topo, Quiet(), Rng(1));

  std::vector<std::string> order;
  std::vector<double> done_at;
  auto start = [&](const char* label, NodeIndex src, Bytes bytes) {
    net.StartFlow(src, src + 1, bytes, FlowKind::kOther, [&, label] {
      order.push_back(label);
      done_at.push_back(sim.Now());
    });
  };

  // Phase 1: the dc2->dc3 component is perturbed first.
  start("a1", 2, MiB(1));
  start("b1", 0, MiB(2));
  start("a2", 2, MiB(1));
  sim.Run();
  // Phase 2: the dc0->dc1 component is perturbed first.
  start("b2", 0, MiB(1));
  start("a3", 2, MiB(2));
  start("b3", 0, MiB(1));
  sim.Run();

  const std::vector<std::string> expected = {"a1", "a2", "b1",
                                             "b2", "b3", "a3"};
  EXPECT_EQ(order, expected);
  ASSERT_EQ(done_at.size(), 6u);
  EXPECT_EQ(done_at[0], done_at[1]);
  EXPECT_EQ(done_at[0], done_at[2]);
  EXPECT_EQ(done_at[3], done_at[4]);
  EXPECT_EQ(done_at[3], done_at[5]);
}

}  // namespace
}  // namespace gs

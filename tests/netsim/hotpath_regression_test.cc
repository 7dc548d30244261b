// Regression tests for the incremental rate-sharing hot path
// (docs/PERF.md, "Netsim hot path"): batched reconfiguration when many
// flows finish at one instant, and the starvation guards that keep a flow
// from being stranded with no (or an unrepresentable) completion deadline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
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

// --- Max-min solve on cap-heavy components -------------------------------
//
// Every WAN flow carries a single-connection TCP cap. Each step of the
// progressive-filling solve freezes either one flow at its cap (a cap
// step) or every unfrozen flow of the link with the smallest fair share (a
// share step). These cases pin the solve bit for bit on seeded random flow
// sets at both extremes:
// - a light set, one flow per WAN link, where most freezes are cap steps
//   (about 90% on the six-region mesh and 80% on the twelve-DC one; a
//   jittered link can still drop below its lone flow's cap);
// - a heavy set, many flows per link, where share steps freeze most flows.
// The digest folds every flow's id and finish-time bits in completion
// order, so any change to a rate, or to the order of equal-time
// completions, moves it.

// Synthetic 12-datacenter deployment, 4 workers per DC, full WAN mesh.
Topology TwelveDcTopology() {
  Topology topo;
  for (int d = 0; d < 12; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
    for (int n = 0; n < 4; ++n) {
      topo.AddNode({"dc" + std::to_string(d) + "-w" + std::to_string(n), d,
                    2, Gbps(1)});
    }
  }
  topo.AddUniformWanMesh(Mbps(200), Mbps(80), Mbps(300), Millis(150));
  return topo;
}

struct FlowSetDigest {
  std::uint64_t hash = kFnvOffsetBasis;
  int flows = 0;

  void Add(const FlowRecord& f) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f.finished, sizeof bits);
    for (const std::uint64_t word : {static_cast<std::uint64_t>(f.id), bits}) {
      for (int b = 0; b < 8; ++b) {
        hash ^= (word >> (8 * b)) & 0xff;
        hash *= kFnvPrime;
      }
    }
    ++flows;
  }
};

struct FlowSetShape {
  int min_per_link = 1;
  int max_per_link = 2;
  Bytes min_bytes = MiB(1);
  Bytes max_bytes = MiB(9);
  SimTime window = 20;  // flows start uniformly in [0, window) of a round
  int rounds = 1;       // each round starts once the previous one drained
};

// Starts, in each round, between `min_per_link` and `max_per_link` flows
// on every directed datacenter pair, each between random nodes of the two
// datacenters at a random time in the round's window, and runs them all to
// completion under the default (jittered, stalling) network config.
FlowSetDigest RunFlowSet(const Topology& topo, const FlowSetShape& shape,
                         std::uint64_t seed) {
  Simulator sim;
  Network net(sim, topo, NetworkConfig{}, Rng(seed));
  FlowSetDigest digest;
  net.SetFlowObserver([&digest](const FlowRecord& f) { digest.Add(f); });
  Rng rng(seed + 1);
  auto pick = [&rng](const std::vector<NodeIndex>& nodes) {
    return nodes[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  };
  int started = 0;
  for (int round = 0; round < shape.rounds; ++round) {
    const SimTime base = sim.Now();
    for (DcIndex s = 0; s < topo.num_datacenters(); ++s) {
      for (DcIndex d = 0; d < topo.num_datacenters(); ++d) {
        if (s == d) continue;
        const std::int64_t k =
            rng.UniformInt(shape.min_per_link, shape.max_per_link);
        for (std::int64_t i = 0; i < k; ++i) {
          const NodeIndex src = pick(topo.nodes_in(s));
          const NodeIndex dst = pick(topo.nodes_in(d));
          const Bytes bytes = rng.UniformInt(shape.min_bytes, shape.max_bytes);
          sim.ScheduleAt(base + rng.Uniform(0, shape.window),
                         [&net, src, dst, bytes] {
                           net.StartFlow(src, dst, bytes, FlowKind::kOther,
                                         [] {});
                         });
          ++started;
        }
      }
    }
    sim.Run();
  }
  EXPECT_EQ(digest.flows, started);
  EXPECT_EQ(net.active_flows(), 0);
  return digest;
}

// One flow per WAN link per round, large enough for the round's flows to
// overlap: the WAN share rarely binds, so most freezes are cap steps.
FlowSetShape CapBound() {
  return FlowSetShape{1, 1, MiB(8), MiB(64), 0.25, 6};
}

// Many flows per link over 20 s (hundreds on the six-region mesh, tens on
// the twelve-DC one): share steps dominate.
FlowSetShape ShareBound(int min_per_link, int max_per_link) {
  return FlowSetShape{min_per_link, max_per_link, MiB(1), MiB(9), 20, 1};
}

TEST(HotpathRegressionTest, CapBoundSolveSixRegions) {
  const FlowSetDigest d = RunFlowSet(Ec2SixRegionTopology(), CapBound(), 11);
  EXPECT_EQ(d.flows, 180);
  EXPECT_EQ(d.hash, 6548801368238439584u);
}

TEST(HotpathRegressionTest, CapBoundSolveTwelveDc) {
  const FlowSetDigest d = RunFlowSet(TwelveDcTopology(), CapBound(), 12);
  EXPECT_EQ(d.flows, 792);
  EXPECT_EQ(d.hash, 2212987159711594169u);
}

TEST(HotpathRegressionTest, ShareBoundSolveSixRegions) {
  const FlowSetDigest d =
      RunFlowSet(Ec2SixRegionTopology(), ShareBound(100, 200), 13);
  EXPECT_EQ(d.flows, 4408);
  EXPECT_EQ(d.hash, 11403090166684353420u);
}

TEST(HotpathRegressionTest, ShareBoundSolveTwelveDc) {
  const FlowSetDigest d =
      RunFlowSet(TwelveDcTopology(), ShareBound(25, 35), 14);
  EXPECT_EQ(d.flows, 3949);
  EXPECT_EQ(d.hash, 11929761399956943207u);
}

}  // namespace
}  // namespace gs

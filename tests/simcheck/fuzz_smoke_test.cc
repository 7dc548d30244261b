// A small deterministic slice of the fuzz loop runs inside the tier-1
// suite: a handful of generated configurations must satisfy the full
// invariant catalog, the engine check must report the same result on
// every call, and the shrinker must preserve the violated invariant while
// it simplifies.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/run_config.h"
#include "simcheck/simcheck.h"

namespace gs {
namespace simcheck {
namespace {

std::string Describe(const CheckResult& r) {
  std::string out;
  for (const auto& v : r.violations) {
    out += "[" + v.invariant + "] " + v.detail + "\n";
  }
  return out;
}

TEST(SimcheckSmokeTest, NetsimLevelHoldsForSeeds1To8) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const CheckResult r = RunNetsimCheck(GenerateConfig(seed));
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << Describe(r);
    EXPECT_GT(r.netsim_flows, 0) << "seed " << seed;
  }
}

TEST(SimcheckSmokeTest, EngineLevelHoldsForSeeds1To3) {
  // Engine runs are the expensive part (3 schemes x 2 thread counts plus
  // probe and rerun), so tier-1 keeps a small slice; CI's geosim-fuzz job
  // covers a wide seed range.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CheckResult r = RunEngineCheck(GenerateConfig(seed));
    EXPECT_TRUE(r.ok()) << "seed " << seed << "\n" << Describe(r);
    EXPECT_GT(r.engine_runs, 0) << "seed " << seed;
  }
}

// engine_runs as RunEngineCheck defines it: the fault-free probe when the
// config has a fault plan, the three threads=1 runs, and a threads_high
// run or the rerun only where its threads=1 partner did not throw.
int ExpectedEngineRuns(const SimcheckConfig& cfg, const CheckResult& r) {
  const Scheme schemes[] = {Scheme::kSpark, Scheme::kCentralized,
                            Scheme::kAggShuffle};
  auto low_threw = [&](Scheme scheme) {
    const std::string prefix = std::string(SchemeName(scheme)) + " threw: ";
    for (const Violation& v : r.violations) {
      if (v.invariant == kInvRunFailure && v.detail.rfind(prefix, 0) == 0) {
        return true;
      }
    }
    return false;
  };
  int runs = (cfg.crash || cfg.degrade || cfg.block_loss) ? 1 : 0;
  runs += 3;
  for (Scheme scheme : schemes) {
    if (!low_threw(scheme)) ++runs;
  }
  if (!low_threw(schemes[cfg.seed % 3])) ++runs;
  return runs;
}

TEST(SimcheckSmokeTest, EngineCheckResultIsStableAcrossCalls) {
  // The engine check runs its scheme x thread x rerun runs concurrently
  // and consumes them in a fixed order, so every call must report the same
  // violations in the same order and the same engine_runs.
  std::vector<SimcheckConfig> configs;
  for (std::uint64_t seed : {1, 2, 3}) configs.push_back(GenerateConfig(seed));
  // Crash, link degradation and block loss together, adaptive placement
  // and coded shuffle on.
  const SimcheckConfig faulty = GenerateConfig(53);
  ASSERT_TRUE(faulty.crash && faulty.degrade && faulty.block_loss);
  configs.push_back(faulty);
  // Minimized seed 103961 from the adaptive x crash drain family: the
  // AggShuffle threads=1 run throws "simulation drained", so its
  // threads_high run and the rerun (also AggShuffle) are discarded.
  SimcheckConfig drain;
  std::string error;
  ASSERT_TRUE(FromJson(
      R"({"seed":103961,"num_dcs":3,"nodes_per_dc":2,)"
      R"("dedicated_driver":false,"wan_rate_mbps":200,"rtt_ms":100,)"
      R"("uniform_wan":true,"dag_shape":0,"num_records":8,"num_keys":2,)"
      R"("partitions_per_dc":2,"num_shards":1,"map_side_combine":false,)"
      R"("save_action":true,"aggregator_dc_count":1,"threads_high":2,)"
      R"("noisy_network":false,"crash":true,"crash_victim":5,)"
      R"("crash_frac":0.20613035934459908,"restart_after":0,)"
      R"("degrade":true,"degrade_factor":0.2692684225582704,)"
      R"("degrade_frac":0.4411660915054241,)"
      R"("degrade_duration":2.922793180313811,"block_loss":true,)"
      R"("block_loss_frac":0.2950672461592204,"transport":0,"adaptive":1,)"
      R"("coded":0})",
      &drain, &error))
      << error;
  configs.push_back(drain);

  for (const SimcheckConfig& cfg : configs) {
    const CheckResult first = RunEngineCheck(cfg);
    for (int call = 2; call <= 3; ++call) {
      const CheckResult again = RunEngineCheck(cfg);
      EXPECT_EQ(Describe(again), Describe(first))
          << "seed " << cfg.seed << ", call " << call;
      EXPECT_EQ(again.engine_runs, first.engine_runs)
          << "seed " << cfg.seed << ", call " << call;
    }
    EXPECT_EQ(first.engine_runs, ExpectedEngineRuns(cfg, first))
        << "seed " << cfg.seed << "\n" << Describe(first);
  }
}

TEST(SimcheckSmokeTest, ShrinkKeepsTheViolatedInvariant) {
  // A config that is invalid at the netsim level: the check reports
  // run-failure, and shrinking must return a config that still does.
  SimcheckConfig bad;
  bad.num_dcs = 0;
  const CheckResult before = RunNetsimCheck(bad);
  ASSERT_FALSE(before.ok());
  const ShrinkOutcome outcome = Shrink(bad, 16, &RunNetsimCheck);
  EXPECT_FALSE(outcome.result.ok());
  bool shares = false;
  for (const auto& v : outcome.result.violations) {
    for (const auto& o : before.violations) {
      if (v.invariant == o.invariant) shares = true;
    }
  }
  EXPECT_TRUE(shares) << "shrinker drifted to a different invariant";
  EXPECT_LE(outcome.runs, 16);
}

}  // namespace
}  // namespace simcheck
}  // namespace gs

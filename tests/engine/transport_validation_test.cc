// TransportConfig / pricing input validation: malformed rates and prices
// must be rejected with a CheckFailure when the config locks in at
// GeoCluster construction — not propagate as NaN through the max-min
// solver or the cost report.
#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "common/check.h"
#include "engine/cluster.h"
#include "engine/transport/transport.h"

namespace gs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

RunConfig ValidConfig() {
  RunConfig cfg;
  cfg.seed = 3;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  return cfg;
}

void ExpectRejected(RunConfig cfg) {
  EXPECT_THROW(GeoCluster(Ec2SixRegionTopology(100), std::move(cfg)),
               CheckFailure);
}

TEST(TransportValidationTest, ValidConfigsConstruct) {
  for (TransportKind kind : {TransportKind::kDirect,
                             TransportKind::kObjectStore,
                             TransportKind::kFabric}) {
    RunConfig cfg = ValidConfig();
    cfg.transport.kind = kind;
    EXPECT_NO_THROW(GeoCluster(Ec2SixRegionTopology(100), cfg));
  }
}

TEST(TransportValidationTest, RejectsBadObjectStoreSettings) {
  {
    RunConfig cfg = ValidConfig();
    cfg.transport.object_store.rate = 0;
    ExpectRejected(std::move(cfg));
  }
  {
    RunConfig cfg = ValidConfig();
    cfg.transport.object_store.rate = kInf;
    ExpectRejected(std::move(cfg));
  }
  {
    RunConfig cfg = ValidConfig();
    cfg.transport.object_store.request_latency = kNan;
    ExpectRejected(std::move(cfg));
  }
  {
    // Out-of-range staging DC (the six-region cluster has DCs 0..5).
    RunConfig cfg = ValidConfig();
    cfg.transport.object_store.dc = 6;
    ExpectRejected(std::move(cfg));
  }
}

TEST(TransportValidationTest, RejectsBadFabricSettings) {
  {
    RunConfig cfg = ValidConfig();
    cfg.transport.fabric.rate = -1.0;
    ExpectRejected(std::move(cfg));
  }
  {
    RunConfig cfg = ValidConfig();
    cfg.transport.fabric.exchange_latency = kNan;
    ExpectRejected(std::move(cfg));
  }
}

TEST(TransportValidationTest, RejectsBadEgressRates) {
  RunConfig cfg = ValidConfig();
  cfg.observe.egress_usd_per_gib = {0.09, 0.09, kNan, 0.09, 0.12, 0.14};
  ExpectRejected(std::move(cfg));
}

// The validation happens at construction, before any flow: a bad config
// must never produce a partially wired cluster.
TEST(TransportValidationTest, DefaultTransportConfigIsValid) {
  TransportConfig def;
  EXPECT_EQ(def.kind, TransportKind::kDirect);
  RunConfig cfg = ValidConfig();
  cfg.transport = def;
  EXPECT_NO_THROW(GeoCluster(Ec2SixRegionTopology(100), cfg));
}

}  // namespace
}  // namespace gs

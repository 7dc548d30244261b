// FaultInjector: materializes a FaultPlan into simulator events.
//
// Constructed by GeoCluster when RunConfig::fault.plan is non-empty. Every
// scheduled fault becomes an event on the shared simulator at construction
// time; the events fire during whatever job happens to be running then (or
// between jobs — component state changes either way, and losses are
// discovered lazily). Random crashes follow a Poisson process over the live
// workers, seeded from the run seed so chaos runs are reproducible.
#pragma once

#include "common/rng.h"
#include "engine/fault_plan.h"

namespace gs {

class GeoCluster;

class FaultInjector {
 public:
  FaultInjector(GeoCluster& cluster, const FaultPlan& plan, Rng rng);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  void ScheduleNextRandomCrash();
  void FireRandomCrash();

  GeoCluster& cluster_;
  FaultPlan plan_;
  Rng rng_;
  int fired_crashes_ = 0;
};

}  // namespace gs

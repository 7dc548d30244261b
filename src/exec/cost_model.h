// Compute and I/O cost model for task execution.
//
// Tasks transform real records synchronously; simulated durations are
// charged from byte counts using rates calibrated to the paper's m3.large
// workers (2 vCPUs, SSD storage). Like the network rates, these can be
// divided by `scale` so that inputs scaled down by the same factor
// reproduce full-scale timings.
#pragma once

#include "common/units.h"

namespace gs {

struct CostModel {
  // Per-core processing throughput of transformation code.
  Rate cpu_rate = 180.0 * kMiB;
  // SSD sequential read/write throughput (per task).
  Rate disk_read_rate = 250.0 * kMiB;
  Rate disk_write_rate = 200.0 * kMiB;
  // Per-record processing cost (hashing, comparison, virtual dispatch) on
  // top of the byte-rate cost; dominates sort-heavy reducers.
  SimTime record_cpu = 2e-6;
  // Fixed cost to launch a task on an executor (deserialization, JIT, ...).
  SimTime task_launch_overhead = Millis(150);
  // Driver-side delay between a stage becoming ready and task submission.
  SimTime stage_submit_delay = Millis(100);

  // Task-duration variability, as observed on shared EC2 instances (JIT,
  // GC pauses, CPU steal): each task's compute time is multiplied by
  // exp(N(0, straggler_sigma)), and with probability straggler_prob the
  // task is an outright straggler slowed by straggler_factor. Staggered
  // map finish times are what proactive pushes exploit (Fig. 1), and late
  // stragglers are what the fetch barrier amplifies.
  double straggler_sigma = 0.3;
  double straggler_prob = 0.08;
  double straggler_factor = 3.0;

  SimTime CpuTime(Bytes in, Bytes out) const {
    return static_cast<double>(in + out) / cpu_rate;
  }

  // Returns a copy rescaled so that inputs divided by `scale` reproduce
  // full-scale timings: byte rates divide by `scale`, and the per-record
  // cost multiplies by it (record counts shrink with the data).
  CostModel Scaled(double scale) const {
    CostModel m = *this;
    m.cpu_rate /= scale;
    m.disk_read_rate /= scale;
    m.disk_write_rate /= scale;
    m.record_cpu *= scale;
    return m;
  }
};

}  // namespace gs

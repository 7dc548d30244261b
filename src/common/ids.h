// Index types for the simulated cluster.
//
// Plain integer aliases are used (rather than wrapper classes) because these
// values index into contiguous vectors on hot paths; the aliases exist to
// make signatures self-describing.
#pragma once

#include <cstdint>

namespace gs {

// Index of a datacenter (region) in the topology.
using DcIndex = int;

// Index of a worker node in the topology (global across datacenters).
using NodeIndex = int;

// Identifier for a network flow.
using FlowId = std::int64_t;

// Identifier for a submitted job, stage within a job, or task within a stage.
using JobId = int;
using StageId = int;
using TaskId = std::int64_t;

// Identifier for one shuffle (one wide dependency in a job DAG).
using ShuffleId = int;

// Identifier of an RDD in a lineage graph.
using RddId = int;

inline constexpr NodeIndex kNoNode = -1;
inline constexpr DcIndex kNoDc = -1;

}  // namespace gs

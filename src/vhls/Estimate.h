// Estimate.h - the latency / II / resource algebra of the virtual HLS
// backend, factored out of the scheduler.
//
// How a pipelined loop's total latency follows from its depth, trip count
// and II, how port pressure and allocation limits bound the II, how FU
// demand follows from op counts, and what the control FSM and partitioned
// memories cost: the closed forms the scheduler (Scheduler.cpp) applies
// to the schedules it computes, kept apart from the scheduling itself so
// each formula is stated once.
#pragma once

#include "vhls/TechLibrary.h"

namespace mha::vhls {

/// ceil(a / b) for non-negative a and positive b.
inline int64_t ceilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Total cycles of a pipelined loop: fill the depth once, then one
/// initiation per remaining iteration, plus pipeline entry/exit control.
inline int64_t pipelinedLoopLatency(int64_t iterationLatency,
                                    int64_t tripCount, int64_t ii) {
  return iterationLatency + (tripCount - 1) * ii + 2;
}

/// Total cycles of a sequential loop: every iteration pays the full
/// iteration latency, plus the final exit test.
inline int64_t sequentialLoopLatency(int64_t tripCount,
                                     int64_t iterationLatency) {
  return tripCount * iterationLatency + 1;
}

/// Minimum II imposed by one memory bank class: `accesses` contending
/// requests per iteration through `portsPerBank` ports.
inline int64_t portLimitedMII(int64_t accesses, int portsPerBank) {
  return ceilDiv(accesses, portsPerBank);
}

/// Minimum II imposed by a functional-unit allocation limit.
inline int64_t allocationLimitedMII(int64_t ops, int limit) {
  return ceilDiv(ops, limit);
}

/// Minimum II imposed by one loop-carried dependence cycle of
/// `cycleLength` cycles spanning `distance` iterations.
inline int64_t recurrenceMII(int64_t cycleLength, int64_t distance) {
  return ceilDiv(cycleLength, distance);
}

/// Functional units a pipelined body needs to issue `ops` same-class
/// operations every `ii` cycles.
inline int64_t pipelinedFuDemand(int64_t ops, int64_t ii) {
  return ceilDiv(ops, ii);
}

/// Control overhead of the scheduler's one-hot FSM.
inline ResourceUsage fsmOverhead(int64_t fsmStates, const TargetSpec &target) {
  ResourceUsage usage;
  usage.lut = fsmStates * target.lutPerState;
  usage.ff = fsmStates * target.ffPerState;
  return usage;
}

/// BRAM blocks of an array split into `banks` equal banks (each bank is a
/// physically separate memory and rounds up on its own).
inline int64_t partitionedBramBlocks(int64_t bytes, int64_t banks) {
  return banks * bramBlocksFor(bytes / banks);
}

} // namespace mha::vhls

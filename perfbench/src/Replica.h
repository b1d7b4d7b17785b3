// Replica.h - the outside-in stage replica used by traced runs.
//
// runReplica drives one design through the layers' public functions in
// the order src/flow/Flow.cpp calls them, and records a span in the
// ledger around every call. It never edits the program: the adaptor
// pipeline runs with verifyEach=false and the verifier is called from a
// PassInstrumentation after each pass, which gives the flow's verify
// count and makes the verifier its own row.
//
// With the StageCache on, the replica rebuilds the stage keys (only
// StageCache::synthKey is public; the mlir and bridge keys are rebuilt
// with HashBuilder exactly as the flow builds them), looks them up in the
// process-wide cache and restores hits, but never stores: the black-box
// flow that runs after it stores, so both see the same cache state. A
// hit on an entry the flow stored proves the rebuilt key is faithful.
#pragma once

#include "Bench.h"

#include <memory>
#include <string>

namespace perfbench {

/// Adaptor pass names, as buildAdaptorPipeline adds them.
const std::vector<std::string> &adaptorPassNames();

struct ReplicaOutput {
  bool ok = false;
  std::string error;
  /// StageCache outcome of each of the replica's lookups.
  bool mlirHit = false, bridgeHit = false, synthHit = false;
  /// The final module (after synthesis, which unrolls in place) and the
  /// synthesis report, for the fidelity comparison outside the timing.
  /// The module is declared after its context, so it is destroyed first.
  std::unique_ptr<mha::lir::LContext> ctx;
  std::unique_ptr<mha::lir::Module> module;
  mha::vhls::SynthesisReport report;

  /// True when the replica's module text and report are byte-identical
  /// to the black-box flow's.
  bool matches(const mha::flow::FlowResult &run) const;
};

ReplicaOutput runReplica(const Design &design, bool useStageCache,
                         Ledger &ledger);

} // namespace perfbench

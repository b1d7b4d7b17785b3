// Flow.h - end-to-end flow drivers for the paper's two compilation paths.
//
//   Adaptor flow (the paper's):  MLIR -> [affine opts] -> scf -> LLVM IR
//     (modern conventions) -> HLS Adaptor -> HLS-readable IR -> virtual HLS
//   HLS C++ flow (baseline):     MLIR -> [affine opts] -> HLS C++ text ->
//     C frontend (+O2-lite) -> HLS IR -> virtual HLS
//   Direct-LIR entry:            lir text -> HLS Adaptor -> virtual HLS
//
// Each flow is a short list of stages — mlirOpt, bridge, synth (which
// looks up its ScheduleGraph as a nested fourth stage) — run by one
// executor (Flow.cpp). A stage supplies three things: an input-key
// function, a run function that fills the FlowResult, and a codec that
// restores or encodes its StageCache entry. The executor alone owns the
// cancellation/onStage gate, the "flow-stage" telemetry span and the
// StageTimings window, the StageCache lookup/restore/store round trip and
// the failure tail, so all flows share one implementation of each.
//
// All paths end in the same backend; the experiments compare their
// post-synthesis latency/resources and their compile time, plus functional
// equivalence through the interpreter.
#pragma once

#include "adaptor/Adaptor.h"
#include "flow/Kernels.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lowering/Lowering.h"
#include "vhls/Vhls.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mha::flow {

enum class FlowKind { Adaptor, HlsCpp };

/// Short human/JSON name for a flow kind ("adaptor" / "hls-c++").
const char *flowKindName(FlowKind kind);

/// Stage windows in milliseconds. After a bridge-cache hit whose synth
/// and graph stages both miss, synthMs includes building the final module
/// from the cached lir text (FinalModule's deferred parse runs inside the
/// window).
struct StageTimings {
  double mlirOptMs = 0;   // shared MLIR-level preparation (both flows)
  double bridgeMs = 0;    // scf-conversion+lowering+adaptor OR emission+frontend
  double synthMs = 0;     // virtual HLS
  double totalMs = 0;
};

/// The flow's final HLS IR: an lir::Module owned together with its
/// LContext, read like a std::unique_ptr<lir::Module>. A bridge-cache hit
/// installs only the cached lir text; the first access (get, *, ->, bool
/// or nullptr comparison) parses it with the same parser the bridge's
/// output round-trips through, so a module that is never read is never
/// built. A failed deferred parse reads as nullptr and keeps its rendered
/// diagnostics in error(). unrollByDirectives() brings a deferred module
/// to the state synthesis leaves it in, also on first access.
///
/// First access builds through `const`, so it is not thread-safe: one
/// thread must make the first access before others read the handle.
class FinalModule {
public:
  /// Replaces the held IR with the module `build(ctx)` returns for a fresh
  /// context; false (and a null handle) when it returns nullptr.
  template <typename Build> bool build(Build &&build) {
    pending_.reset();
    unrollPending_ = false;
    error_.clear();
    ir_ = std::make_unique<IR>();
    ir_->module = build(ir_->ctx);
    if (!ir_->module)
      ir_.reset();
    return ir_ != nullptr;
  }
  /// Replaces the held IR with `lirText`, parsed on first access.
  void defer(std::string lirText);
  /// Applies the module's xlx.unroll directives (vhls::unrollByDirectives):
  /// now when it is built, else right after its deferred parse.
  void unrollByDirectives();

  /// The module, built first if deferred; nullptr when there is none.
  lir::Module *get() const;
  lir::Module &operator*() const { return *get(); }
  lir::Module *operator->() const { return get(); }
  explicit operator bool() const { return get() != nullptr; }
  friend bool operator==(const FinalModule &m, std::nullptr_t) { return !m; }
  friend bool operator!=(const FinalModule &m, std::nullptr_t) {
    return bool(m);
  }

  /// Rendered diagnostics of a failed deferred parse; empty otherwise.
  const std::string &error() const { return error_; }

private:
  /// One allocation owns context and module; `module` is declared after
  /// `ctx`, so every move-assignment and reset drops the module first
  /// (~Module walks context-owned constants).
  struct IR {
    lir::LContext ctx;
    std::unique_ptr<lir::Module> module;
  };
  mutable std::unique_ptr<IR> ir_;
  mutable std::optional<std::string> pending_;
  mutable bool unrollPending_ = false;
  mutable std::string error_;
};

/// A named sub-stage measurement attributed to one of the three timing
/// windows ("mlirOpt", "bridge", "synth"). The span list makes timing
/// attribution auditable: tests assert both flows charge the same work to
/// mlirOptMs (Table 4 compares like with like), and the batch tracer
/// exports spans per job.
struct StageSpan {
  std::string stage; // "mlirOpt" | "bridge" | "synth"
  std::string name;  // e.g. "prepare-mlir", "affine-to-scf", "adaptor-pipeline"
  double ms = 0;
};

struct FlowResult {
  bool ok = false;
  /// The run was abandoned at a stage boundary because
  /// FlowOptions::cancelFlag was set (cooperative cancellation — the
  /// compile-service path). Always implies !ok.
  bool cancelled = false;
  /// The synthesis stage (the final result) was served from the
  /// StageCache — the whole-pipeline "warm hit" signal mha-serve reports.
  bool synthFromCache = false;
  FlowKind kind = FlowKind::Adaptor;
  std::string kernelName;
  vhls::SynthesisReport synth;
  lir::PassStats adaptorStats; // adaptor flow only
  StageTimings timings;
  std::vector<StageSpan> spans;
  std::string hlsCpp;          // baseline flow only: the emitted C++
  std::string diagnostics;     // rendered diagnostics (errors/warnings)

  /// Final HLS IR for co-simulation and callers. After a synth-stage run
  /// it is the synthesized (backend-unrolled) module; after a synth-cache
  /// hit it is in its bridge state. Built on first access after a
  /// bridge-cache hit (see FinalModule), so a full warm hit that nobody
  /// reads never parses, and neither does a synth-only TargetSpec edit
  /// served from the cached ScheduleGraph: that run leaves the module
  /// deferred, to be parsed and unrolled on first read.
  FinalModule module;

  lir::Function *topFunction() const {
    return module ? module->getFunction(kernelName) : nullptr;
  }
};

struct FlowOptions {
  vhls::SynthesisOptions synthesis;
  adaptor::AdaptorOptions adaptor;
  lowering::LoweringOptions lowering;
  /// Run MLIR-level canonicalization before branching into a flow.
  bool runMlirOpts = true;
  /// Cross-layer choice: honour hls.unroll directives by unrolling at the
  /// *MLIR* level (before either bridge) instead of letting the HLS
  /// backend unroll. The adaptor flow then carries pre-unrolled IR; the
  /// C++ flow emits pre-unrolled source.
  bool unrollAtMlirLevel = false;
  /// Consult the process-global StageCache: hash each stage's input and
  /// skip the stage when its output is already cached (incremental
  /// recompilation). Off by default; cold-run output is identical either
  /// way. Shared by BatchRunner jobs, the DSE evaluator and the fuzz
  /// oracle whenever their FlowOptions enable it.
  bool useStageCache = false;
  /// Cooperative cancellation: when non-null, the flow checks the flag at
  /// every stage boundary (before mlirOpt, bridge and synth) and abandons
  /// the run with FlowResult::cancelled set instead of starting the next
  /// stage. Mid-stage work is never interrupted — a cancelled flow still
  /// leaves the process in a consistent state (the StageCache keeps any
  /// stage that completed).
  const std::atomic<bool> *cancelFlag = nullptr;
  /// Stage-progress observer: called at the start of each stage
  /// ("mlirOpt", "bridge", "synth") from the flow's thread. mha-serve
  /// streams these as per-stage progress events to the requesting client.
  std::function<void(const char *stage)> onStage;
};

/// Runs the `kind` flow on a registered kernel.
FlowResult runFlow(FlowKind kind, const KernelSpec &spec,
                   const KernelConfig &config, const FlowOptions &options = {});

/// The paper's direct-IR path: runFlow(FlowKind::Adaptor, ...).
FlowResult runAdaptorFlow(const KernelSpec &spec, const KernelConfig &config,
                          const FlowOptions &options = {});

/// The MLIR->HLS-C++ baseline path: runFlow(FlowKind::HlsCpp, ...).
FlowResult runHlsCppFlow(const KernelSpec &spec, const KernelConfig &config,
                         const FlowOptions &options = {});

/// Direct-LIR entry: parses `lirText` (a possibly multi-function module
/// with calls/recursion), runs the adaptor pipeline and synthesizes
/// `topFunction`. The whole input module addresses the bridge stage of
/// the StageCache, so an edit anywhere — including a callee body — is a
/// cache miss. `topFunction` empty picks the module's only function and
/// errors when that is ambiguous.
FlowResult runLirAdaptorFlow(const std::string &lirText,
                             const std::string &topFunction,
                             const FlowOptions &options = {});

/// The flows' synth stage alone, StageCache round trip included: virtual
/// HLS of `module`, served from the cache when `useStageCache` is set and
/// an accepted report is stored under the module's printed text and
/// `options` (or rescheduled from a ScheduleGraph a flow cached). Lets the
/// fuzz oracle share the flows' synth entries. A cache hit of either kind
/// leaves `module` as it was given.
vhls::SynthesisReport synthesizeCached(lir::Module &module,
                                       const vhls::SynthesisOptions &options,
                                       bool useStageCache,
                                       DiagnosticEngine &diags);

/// Executes the flow's final IR against the host reference. Returns true
/// when every output buffer matches bit-for-bit; `error` explains any
/// mismatch. Runs on the flattened (one pointer per array) convention.
bool cosimAgainstReference(const FlowResult &result, const KernelSpec &spec,
                           std::string &error);

} // namespace mha::flow

#include "flow/Flow.h"

#include "flow/StageCache.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "interp/Interp.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lowering/Lowering.h"
#include "mir/Parser.h"
#include "mir/Pass.h"
#include "mir/Printer.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cmath>
#include <initializer_list>
#include <optional>

namespace mha::flow {

namespace {

telemetry::Statistic statMaterialized(
    "flow.cache", "bridge.materialized",
    "bridge-cache hits whose module was built");

// --- Flow state and stage table -------------------------------------------

/// Everything one flow run threads through its stages.
struct FlowState {
  FlowState(const FlowOptions &options, DiagnosticEngine &diags)
      : options(options), diags(diags) {}

  const FlowOptions &options;
  DiagnosticEngine &diags;
  const KernelSpec *spec = nullptr;      // kernel flows
  const KernelConfig *config = nullptr;  // kernel flows
  const std::string *lirInput = nullptr; // direct-LIR entry
  FlowResult result;
  mir::MContext mctx;
  /// Stage-1 module; empty after an mlir hit until a bridge run reparses.
  std::optional<mir::OwnedModule> mirModule;
  std::string mirText; // stage-1 output text (cache on)
  std::string lirText; // bridge output text; addresses synth and graph
  bool bridgeHit = false; // lirText was served from the StageCache
  /// Index of the first diagnostic the stage being encoded reported.
  size_t runDiagsFrom = 0;
  /// The elaborated final module (graph stage), scheduled by synth.
  StageCache::GraphPtr graph;
  adaptor::AdaptorOptions adaptorOpts = options.adaptor;
  vhls::SynthesisOptions synthOpts = options.synthesis;
  /// Synthesized instead of result.module when set (synthesizeCached).
  lir::Module *synthModule = nullptr;
};

/// One flow stage: it keys its input, computes its output, and moves that
/// output in and out of its StageCache map. Everything around it — gate,
/// span, timing window, cache round trip, failure tail — belongs to the
/// executor (runStage/runStages).
struct StageDef {
  StageCache::Stage stage;
  /// Optional input preparation, run before the key (false = failed).
  bool (*prepare)(FlowState &);
  /// Hashes the input; called only with the cache on.
  uint64_t (*key)(FlowState &);
  /// Computes the output into the state; false = failed (not stored).
  bool (*run)(FlowState &);
  /// Cache codec: installs a hit (false = failed) / encodes a fresh run.
  bool (*restore)(FlowState &, StageCache::Entry &);
  StageCache::Entry (*encode)(FlowState &);
  /// Optional admission test for a fresh run's output (null: store all).
  bool (*admit)(FlowState &) = nullptr;
};

bool runStage(FlowState &s, const StageDef &stage);

/// Executor tables indexed by StageCache::Stage: the stage's name (the
/// onStage argument and flow-stage span), its StageTimings window, and the
/// FlowResult span covering the whole window (the bridge records its legs
/// instead). The graph stage runs inside synth's window and has no entry.
const char *const kStageNames[] = {"mlirOpt", "bridge", "synth"};
double StageTimings::*const kWindows[] = {
    &StageTimings::mlirOptMs, &StageTimings::bridgeMs, &StageTimings::synthMs};
const char *const kWholeSpans[] = {"prepare-mlir", nullptr, "vhls"};

/// Runs `body` as a bridge sub-stage: a flow-substage telemetry span whose
/// time is recorded in FlowResult::spans whether or not the body succeeds.
template <typename Body>
bool substage(FlowState &s, const char *name, Body body) {
  telemetry::Span span(name, "flow-substage");
  bool ok = body();
  s.result.spans.push_back({"bridge", name, span.finish()});
  return ok;
}

// --- Stage-cache keys -------------------------------------------------
//
// Option structs are hashed field by field (no reflection); when an
// option that changes a stage's output gains a field, add it to the
// matching key function or the cache will serve stale entries for runs
// that differ only in the new field.

/// Stage 1 input: kernel identity + directives + MLIR-level options. The
/// kernel name stands in for the builder function — the registry is
/// static, so the name determines the built IR.
uint64_t mlirKey(FlowState &s) {
  metrics::Timer timer(StageCache::keyHistogram());
  const KernelConfig &config = *s.config;
  HashBuilder hb;
  hb.str("mlir").str(s.spec->name);
  hb.i64(config.pipelineII)
      .i64(config.unrollFactor)
      .i64(config.partitionFactor)
      .boolean(config.dataflow)
      .boolean(config.applyDirectives);
  hb.boolean(s.options.runMlirOpts).boolean(s.options.unrollAtMlirLevel);
  return hb.get();
}

/// Stage 2 input: the bridge kind, the text it consumes, and the options
/// that shape its output. The adaptor bridges hash the *effective*
/// adaptor options (after the flow resolves the top-function hint) — the
/// whole post-inline module shape depends on them — and the adaptor flow
/// adds its lowering options. Emission and the HLS frontend take none.
uint64_t bridgeKey(const char *kind, const std::string &text,
                   const lowering::LoweringOptions *lo,
                   const adaptor::AdaptorOptions *ao) {
  metrics::Timer timer(StageCache::keyHistogram());
  HashBuilder hb;
  hb.str(kind).str(text);
  if (lo)
    hb.boolean(lo->useOpaquePointers)
        .boolean(lo->fuseMulAdd)
        .boolean(lo->useMemcpyIntrinsic)
        .boolean(lo->emitModernAttributes);
  if (ao)
    hb.boolean(ao->runCallLegalization)
        .i64(ao->inlineBudget)
        .i64(ao->recursionDepth)
        .str(ao->topFunction)
        .boolean(ao->runDescriptorElimination)
        .boolean(ao->runIntrinsicLegalize)
        .boolean(ao->runGepCanonicalize)
        .boolean(ao->runPointerTypeRecovery)
        .boolean(ao->runMetadataConvert)
        .boolean(ao->runAttributeScrub)
        .boolean(ao->verifyCompat)
        .boolean(ao->runCleanups)
        .boolean(ao->fusePasses);
  return hb.get();
}

// --- Stage 1 (both kernel flows): the shared MLIR preparation -----------
//
// Exactly the same work in both flows, so Table 4's mlirOptMs windows
// compare like with like. A hit serves the printed module and skips
// build+verify+canonicalize.

bool mlirRun(FlowState &s) {
  mir::OwnedModule module = s.spec->build(s.mctx, *s.config);
  if (!mir::verifyModule(module.get(), s.diags))
    return false;
  mir::MPassManager pm;
  if (s.options.runMlirOpts)
    pm.add(mir::createCanonicalizePass());
  if (s.options.unrollAtMlirLevel) {
    // Cross-layer: consume hls.unroll here instead of in the backend.
    module.get().op->walk([&](mir::Operation *op) {
      if (!op->is(mir::ops::AffineFor))
        return;
      if (const auto *factor =
              dyn_cast<mir::IntegerAttr>(op->attr(mir::hlsattr::Unroll))) {
        op->setAttr("mha.unroll_now", factor);
        op->removeAttr(mir::hlsattr::Unroll);
      }
    });
    pm.add(mir::createAffineUnrollPass());
    if (s.options.runMlirOpts)
      pm.add(mir::createCanonicalizePass());
  }
  if (!pm.run(module.get(), s.diags))
    return false;
  s.mirModule = std::move(module);
  return true;
}

bool mlirRestore(FlowState &s, StageCache::Entry &entry) {
  s.mirText = std::get<std::string>(std::move(entry));
  return true;
}

StageCache::Entry mlirEncode(FlowState &s) {
  s.mirText = mir::printModule(s.mirModule->get());
  return s.mirText;
}

// --- Stage 2: the flow-specific bridge to HLS-ready lir -----------------
//
// A hit replaces the whole leg with the cached lir text and replays the
// leg's diagnostics: the final module is deferred (FinalModule) and parsed
// only when a synth miss or a reader needs it, so a full warm hit builds
// no IR. One codec serves all three flows.

bool bridgeRestore(FlowState &s, StageCache::Entry &entry) {
  auto &cached = std::get<StageCache::BridgeEntry>(entry);
  FlowResult &r = s.result;
  s.bridgeHit = true;
  s.lirText = std::move(cached.lirText);
  substage(s, "bridge-cache-restore", [&] {
    r.module.defer(s.lirText);
    return true;
  });
  r.adaptorStats = std::move(cached.adaptorStats);
  r.hlsCpp = std::move(cached.hlsCpp);
  for (Diagnostic &diag : cached.diagnostics)
    s.diags.report(std::move(diag));
  return true;
}

StageCache::Entry bridgeEncode(FlowState &s) {
  s.lirText = lir::printModule(*s.result.module);
  const std::vector<Diagnostic> &diags = s.diags.diagnostics();
  return StageCache::BridgeEntry{
      s.lirText, s.result.hlsCpp, s.result.adaptorStats,
      {diags.begin() + s.runDiagsFrom, diags.end()}};
}

/// Reparses a cached stage-1 result when a bridge run needs the actual
/// module. Round-trips through the mir parser (the printer's contract).
bool ensureMirModule(FlowState &s) {
  return s.mirModule || substage(s, "parse-cached-mlir", [&] {
           s.mirModule = mir::parseModule(s.mirText, s.mctx, s.diags);
           return s.mirModule.has_value();
         });
}

/// The adaptor pipeline on result.module, on the calling thread.
bool runAdaptorPipeline(FlowState &s) {
  return substage(s, "adaptor-pipeline", [&] {
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::buildAdaptorPipeline(pm, s.adaptorOpts);
    bool ok = pm.run(*s.result.module, s.diags);
    s.result.adaptorStats = pm.totalStats();
    return ok;
  });
}

/// The adaptor flow's lowering leg. The structured->scf conversion is
/// flow-specific work (the C++ flow's emitter consumes structured IR
/// directly), so it is charged to bridgeMs, mirroring how the C++ flow
/// charges its emission leg.
bool adaptorBridgeRun(FlowState &s) {
  FlowResult &r = s.result;
  return ensureMirModule(s) && substage(s, "affine-to-scf", [&] {
           mir::MPassManager convert;
           convert.add(mir::createAffineToScfPass());
           convert.add(mir::createCanonicalizePass());
           return convert.run(s.mirModule->get(), s.diags);
         }) && substage(s, "lower-to-lir", [&] {
           return r.module.build([&](lir::LContext &ctx) {
             return lowering::lowerToLIR(s.mirModule->get(), ctx,
                                         s.options.lowering, s.diags);
           });
         }) && runAdaptorPipeline(s);
}

/// The C++ flow's leg: emit C++, re-parse it with the HLS frontend.
bool hlsCppBridgeRun(FlowState &s) {
  FlowResult &r = s.result;
  return ensureMirModule(s) && substage(s, "emit-hls-cpp", [&] {
           r.hlsCpp = hlscpp::emitHlsCpp(s.mirModule->get(), s.diags);
           return !r.hlsCpp.empty();
         }) && substage(s, "hls-frontend", [&] {
           return r.module.build([&](lir::LContext &ctx) {
             return hlscpp::parseHlsCpp(r.hlsCpp, ctx, s.diags);
           });
         });
}

/// Direct-LIR input: parse the module (a hit still needs it to resolve
/// the top) and resolve the synthesis top before hashing anything — it
/// feeds the inliner's preserved-function option, so it is part of the
/// bridge key. An empty top picks the module's only definition.
bool lirBridgePrepare(FlowState &s) {
  FlowResult &r = s.result;
  if (!substage(s, "parse-lir", [&] {
        return r.module.build([&](lir::LContext &ctx) {
          return lir::parseModule(*s.lirInput, ctx, s.diags);
        });
      }))
    return false;
  std::string top = r.kernelName;
  if (top.empty()) {
    size_t defs = 0;
    for (lir::Function *fn : r.module->functions())
      if (!fn->isDeclaration() && ++defs == 1)
        top = fn->name();
    if (defs != 1) {
      s.diags.error(strfmt("lir module defines %zu functions; a top function "
                           "must be named",
                           defs));
      return false;
    }
  } else if (!r.module->getFunction(top)) {
    s.diags.error(
        strfmt("top function '%s' not found in lir module", top.c_str()));
    return false;
  }
  r.kernelName = s.synthOpts.topFunction = top;
  if (s.adaptorOpts.topFunction.empty())
    s.adaptorOpts.topFunction = top;
  return true;
}

// --- Stage 3: virtual HLS ----------------------------------------------
//
// A run schedules the final module's ScheduleGraph, which is a stage of
// its own (Graph), looked up only on a synth miss. A graph run elaborates
// the module in place (acceptance check plus backend unroll), building it
// first after a bridge hit, a parse charged to the synth window. A graph
// hit replays the elaboration's diagnostics and leaves a deferred module
// deferred: it is parsed and unrolled only if read, so a synth-only
// TargetSpec edit costs one schedule. A graph is stored only when the
// bridge text itself came from the cache, that is when a design is
// synthesized again under another target: a design synthesized once never
// pays for a graph (1.5-2 times the bytes of its bridge text), and its
// first edit pays one elaboration. A synth hit replays the leg's
// diagnostics (the graph's among them) and leaves the module in its bridge
// state, or still deferred (backend unrolling preserves semantics, so
// co-simulation is unaffected); only accepted reports are stored.

bool graphRun(FlowState &s) {
  lir::Module *module =
      s.synthModule ? s.synthModule : s.result.module.get();
  if (!module) {
    s.diags.error("cannot build the cached bridge module: " +
                  s.result.module.error());
    return false;
  }
  telemetry::Span span("vhls-elaborate", "flow-substage");
  s.graph = std::make_shared<const vhls::ScheduleGraph>(vhls::elaborate(
      *module, s.synthOpts.applyUnrollDirectives, s.diags));
  return true;
}

bool graphRestore(FlowState &s, StageCache::Entry &entry) {
  s.graph = std::get<StageCache::GraphPtr>(std::move(entry));
  for (const Diagnostic &diag : s.graph->diagnostics)
    s.diags.report(diag);
  if (!s.synthModule && s.synthOpts.applyUnrollDirectives &&
      s.graph->compat.accepted)
    s.result.module.unrollByDirectives();
  return true;
}

const StageDef kGraphStage{
    StageCache::Stage::Graph, nullptr,
    [](FlowState &s) {
      metrics::Timer timer(StageCache::keyHistogram());
      return HashBuilder()
          .str("graph")
          .str(s.lirText)
          .boolean(s.synthOpts.applyUnrollDirectives)
          .get();
    },
    graphRun, graphRestore,
    // A copy, so that every array of a long-lived graph is sized exactly.
    [](FlowState &s) {
      return StageCache::Entry(
          std::make_shared<const vhls::ScheduleGraph>(*s.graph));
    },
    [](FlowState &s) { return s.bridgeHit; }};

bool synthRun(FlowState &s) {
  if (!runStage(s, kGraphStage))
    return false;
  telemetry::Span span("vhls-schedule", "flow-substage");
  s.result.synth = vhls::schedule(*s.graph, s.synthOpts);
  return s.result.synth.accepted;
}

bool synthRestore(FlowState &s, StageCache::Entry &entry) {
  auto &cached = std::get<StageCache::SynthEntry>(entry);
  s.result.synth = std::move(cached.report);
  s.result.synthFromCache = true;
  for (Diagnostic &diag : cached.diagnostics)
    s.diags.report(std::move(diag));
  return true;
}

StageCache::Entry synthEncode(FlowState &s) {
  const std::vector<Diagnostic> &diags = s.diags.diagnostics();
  return StageCache::SynthEntry{
      s.result.synth, {diags.begin() + s.runDiagsFrom, diags.end()}};
}

using Stage = StageCache::Stage;
const StageDef kMlirStage{Stage::Mlir, nullptr, mlirKey, mlirRun,
                          mlirRestore, mlirEncode};
const StageDef kAdaptorBridge{
    Stage::Bridge, nullptr,
    [](FlowState &s) {
      return bridgeKey("bridge-adaptor", s.mirText, &s.options.lowering,
                       &s.adaptorOpts);
    },
    adaptorBridgeRun, bridgeRestore, bridgeEncode};
const StageDef kHlsCppBridge{
    Stage::Bridge, nullptr,
    [](FlowState &s) {
      return bridgeKey("bridge-hlscpp", s.mirText, nullptr, nullptr);
    },
    hlsCppBridgeRun, bridgeRestore, bridgeEncode};
const StageDef kLirBridge{
    Stage::Bridge, lirBridgePrepare,
    [](FlowState &s) {
      return bridgeKey("bridge-lir", *s.lirInput, nullptr, &s.adaptorOpts);
    },
    runAdaptorPipeline, bridgeRestore, bridgeEncode};
const StageDef kSynthStage{
    Stage::Synth, nullptr,
    [](FlowState &s) { return StageCache::synthKey(s.lirText, s.synthOpts); },
    synthRun, synthRestore, synthEncode};

// --- Executor -------------------------------------------------------------

/// The cache round trip of one stage: prepare and key the input, then
/// restore a hit or run the stage and store its output. With the cache
/// off nothing is hashed or printed.
bool runStage(FlowState &s, const StageDef &stage) {
  if (stage.prepare && !stage.prepare(s))
    return false;
  const bool cached = s.options.useStageCache;
  const uint64_t key = cached ? stage.key(s) : 0;
  if (cached) {
    StageCache::Entry entry;
    if (StageCache::global().lookup(stage.stage, key, entry))
      return stage.restore(s, entry);
  }
  const size_t diagsFrom = s.diags.diagnostics().size();
  if (!stage.run(s))
    return false;
  if (cached && (!stage.admit || stage.admit(s))) {
    s.runDiagsFrom = diagsFrom; // not before: a nested stage sets its own
    StageCache::global().store(key, stage.encode(s));
  }
  return true;
}

/// Runs `stages` in order under one flow span. Before each stage it polls
/// the cancellation flag and notifies onStage; it times each stage into
/// its StageTimings window and stops at the first failure. Every exit —
/// success, failure or cancellation — finishes timings.totalMs.
FlowResult runStages(FlowState &s, std::string spanName,
                     telemetry::SpanArgs spanArgs,
                     std::initializer_list<const StageDef *> stages) {
  FlowResult &r = s.result;
  telemetry::Span totalSpan(std::move(spanName), "flow", std::move(spanArgs));
  bool ok = true;
  for (const StageDef *stage : stages) {
    size_t index = static_cast<size_t>(stage->stage);
    const char *name = kStageNames[index];
    if (s.options.cancelFlag &&
        s.options.cancelFlag->load(std::memory_order_relaxed)) {
      r.cancelled = true;
      r.diagnostics = strfmt("flow cancelled before %s stage", name);
      ok = false;
      break;
    }
    if (s.options.onStage)
      s.options.onStage(name);
    telemetry::Span window(name, "flow-stage");
    ok = runStage(s, *stage);
    double ms = window.finish();
    r.timings.*kWindows[index] = ms;
    if (kWholeSpans[index])
      r.spans.push_back({name, kWholeSpans[index], ms});
    if (!ok)
      break;
  }
  r.timings.totalMs = totalSpan.finish();
  if (!r.cancelled)
    r.diagnostics = s.diags.str();
  r.ok = ok;
  return std::move(r);
}

} // namespace

void FinalModule::defer(std::string lirText) {
  ir_.reset();
  error_.clear();
  unrollPending_ = false;
  pending_ = std::move(lirText);
}

void FinalModule::unrollByDirectives() {
  if (pending_)
    unrollPending_ = true;
  else if (ir_)
    vhls::unrollByDirectives(*ir_->module);
}

lir::Module *FinalModule::get() const {
  if (pending_) {
    telemetry::Span span("materialize-lir", "flow-substage");
    ++statMaterialized;
    DiagnosticEngine diags;
    ir_ = std::make_unique<IR>();
    ir_->module = lir::parseModule(*pending_, ir_->ctx, diags);
    pending_.reset();
    if (!ir_->module) {
      ir_.reset();
      error_ = diags.str();
    } else if (unrollPending_) {
      vhls::unrollByDirectives(*ir_->module);
    }
    unrollPending_ = false;
  }
  return ir_ ? ir_->module.get() : nullptr;
}

const char *flowKindName(FlowKind kind) {
  return kind == FlowKind::Adaptor ? "adaptor" : "hls-c++";
}

FlowResult runFlow(FlowKind kind, const KernelSpec &spec,
                   const KernelConfig &config, const FlowOptions &options) {
  DiagnosticEngine diags;
  FlowState s(options, diags);
  s.spec = &spec;
  s.config = &config;
  s.result.kind = kind;
  s.result.kernelName = spec.name;
  // The adaptor passes need to know the synthesis top (the inliner must
  // not erase it even when every call site is gone).
  if (s.synthOpts.topFunction.empty())
    s.synthOpts.topFunction = spec.name;
  if (s.adaptorOpts.topFunction.empty())
    s.adaptorOpts.topFunction = s.synthOpts.topFunction;
  // Args let a Chrome trace lane be filtered by kernel or flow kind.
  return runStages(
      s, strfmt("flow:%s:%s", flowKindName(kind), spec.name.c_str()),
      {{"kernel", spec.name}, {"flow", flowKindName(kind)}},
      {&kMlirStage,
       kind == FlowKind::Adaptor ? &kAdaptorBridge : &kHlsCppBridge,
       &kSynthStage});
}

FlowResult runAdaptorFlow(const KernelSpec &spec, const KernelConfig &config,
                          const FlowOptions &options) {
  return runFlow(FlowKind::Adaptor, spec, config, options);
}

FlowResult runHlsCppFlow(const KernelSpec &spec, const KernelConfig &config,
                         const FlowOptions &options) {
  return runFlow(FlowKind::HlsCpp, spec, config, options);
}

FlowResult runLirAdaptorFlow(const std::string &lirText,
                             const std::string &topFunction,
                             const FlowOptions &options) {
  DiagnosticEngine diags;
  FlowState s(options, diags);
  s.lirInput = &lirText;
  s.result.kind = FlowKind::Adaptor;
  s.result.kernelName = topFunction;
  return runStages(s, "flow:adaptor:lir-input", {},
                   {&kLirBridge, &kSynthStage});
}

vhls::SynthesisReport synthesizeCached(lir::Module &module,
                                       const vhls::SynthesisOptions &options,
                                       bool useStageCache,
                                       DiagnosticEngine &diags) {
  FlowOptions flowOptions;
  flowOptions.synthesis = options;
  flowOptions.useStageCache = useStageCache;
  FlowState s(flowOptions, diags);
  s.synthModule = &module;
  if (useStageCache)
    s.lirText = lir::printModule(module);
  runStage(s, kSynthStage);
  return std::move(s.result.synth);
}

bool cosimAgainstReference(const FlowResult &result, const KernelSpec &spec,
                           std::string &error) {
  lir::Function *top = result.topFunction();
  if (!top) {
    error = result.module.error().empty()
                ? "no top function in flow result"
                : "cannot build the cached bridge module: " +
                      result.module.error();
    return false;
  }
  // Seed identical inputs for device and host.
  Buffers device = makeBuffers(spec);
  seedBuffers(device);
  Buffers host = device;
  spec.reference(host);

  std::vector<void *> pointers;
  for (auto &buffer : device)
    pointers.push_back(buffer.data());

  DiagnosticEngine diags;
  interp::Interpreter interpreter(*result.module);
  auto run = interpreter.run(top, interp::pointerArgs(pointers), diags);
  if (!run) {
    error = "interpreter failed: " + diags.str();
    return false;
  }

  for (unsigned out : spec.outputs) {
    for (size_t i = 0; i < device[out].size(); ++i) {
      if (device[out][i] != host[out][i] &&
          !(std::isnan(device[out][i]) && std::isnan(host[out][i]))) {
        error = strfmt("buffer %u element %zu: device=%.17g host=%.17g", out,
                       i, device[out][i], host[out][i]);
        return false;
      }
    }
  }
  return true;
}

} // namespace mha::flow

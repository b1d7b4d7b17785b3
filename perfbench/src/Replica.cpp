#include "Replica.h"

#include "flow/StageCache.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lowering/Lowering.h"
#include "mir/Parser.h"
#include "mir/Pass.h"
#include "mir/Printer.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Hash.h"

#include <optional>

namespace perfbench {

using namespace mha;

namespace {

// --- Stage keys, rebuilt field by field as src/flow/Flow.cpp builds them.

void hashConfig(HashBuilder &hb, const flow::KernelConfig &config) {
  hb.i64(config.pipelineII)
      .i64(config.unrollFactor)
      .i64(config.partitionFactor)
      .boolean(config.dataflow)
      .boolean(config.applyDirectives);
}

uint64_t mlirStageKey(const flow::KernelSpec &spec,
                      const flow::KernelConfig &config,
                      const flow::FlowOptions &options) {
  HashBuilder hb;
  hb.str("mlir").str(spec.name);
  hashConfig(hb, config);
  hb.boolean(options.runMlirOpts).boolean(options.unrollAtMlirLevel);
  return hb.get();
}

void hashAdaptorOptions(HashBuilder &hb, const adaptor::AdaptorOptions &ao) {
  hb.boolean(ao.runCallLegalization)
      .i64(ao.inlineBudget)
      .i64(ao.recursionDepth)
      .str(ao.topFunction)
      .boolean(ao.runDescriptorElimination)
      .boolean(ao.runIntrinsicLegalize)
      .boolean(ao.runGepCanonicalize)
      .boolean(ao.runPointerTypeRecovery)
      .boolean(ao.runMetadataConvert)
      .boolean(ao.runAttributeScrub)
      .boolean(ao.verifyCompat)
      .boolean(ao.runCleanups)
      .boolean(ao.fusePasses);
}

uint64_t adaptorBridgeKey(const std::string &mirText,
                          const flow::FlowOptions &options,
                          const adaptor::AdaptorOptions &ao) {
  HashBuilder hb;
  hb.str("bridge-adaptor").str(mirText);
  const lowering::LoweringOptions &lo = options.lowering;
  hb.boolean(lo.useOpaquePointers)
      .boolean(lo.fuseMulAdd)
      .boolean(lo.useMemcpyIntrinsic)
      .boolean(lo.emitModernAttributes);
  hashAdaptorOptions(hb, ao);
  return hb.get();
}

uint64_t hlsCppBridgeKey(const std::string &mirText) {
  HashBuilder hb;
  hb.str("bridge-hlscpp").str(mirText);
  return hb.get();
}

/// Times each adaptor pass from its before/after hooks and runs the
/// verifier after it, where the flow's verifyEach would.
class VerifyingInstrumentation : public lir::PassInstrumentation {
public:
  VerifyingInstrumentation(Ledger &ledger, DiagnosticEngine &diags)
      : ledger_(ledger), diags_(diags) {}

  void beforePass(const lir::ModulePass &pass, const lir::Module &) override {
    span_ = ledger_.open("adaptor." + pass.name());
  }

  void afterPass(const lir::ModulePass &pass, const lir::Module &module,
                 const lir::PassRunRecord &record) override {
    ledger_.close(span_);
    ledger_.count("adaptor." + pass.name() + ".runs", 1);
    if (record.changed)
      ledger_.count("adaptor." + pass.name() + ".changed", 1);
    if (diags_.hadError())
      return; // the flow aborts before verifying a failed pass
    int verify = ledger_.open("lir.verify");
    bool ok = lir::verifyModule(module, diags_);
    ledger_.close(verify);
    if (!ok)
      verifyFailed = true;
  }

  bool verifyFailed = false;

private:
  Ledger &ledger_;
  DiagnosticEngine &diags_;
  int span_ = -1;
};

} // namespace

const std::vector<std::string> &adaptorPassNames() {
  static const std::vector<std::string> names = {
      "inline",           "rec2iter",
      "callsite-privatize", "memref-descriptor-elimination",
      "intrinsic-legalize", "gep-canonicalize",
      "instcombine",      "cse",
      "dce",              "simplifycfg",
      "licm",             "pointer-type-recovery",
      "metadata-convert", "attribute-scrub",
      "hls-compat-verify"};
  return names;
}

ReplicaOutput runReplica(const Design &design, bool useStageCache,
                         Ledger &ledger) {
  ReplicaOutput out;
  ledger.beginRequest();
  const flow::KernelSpec &spec = *design.spec;
  const flow::FlowOptions options = design.flowOptions(useStageCache);
  const bool isAdaptor = design.flow == flow::FlowKind::Adaptor;
  flow::StageCache &cache = flow::StageCache::global();
  DiagnosticEngine diags;
  auto failed = [&](const char *layer) {
    out.error = std::string(layer) + ": " + diags.str();
    return std::move(out);
  };

  // Stage 1: the shared MLIR preparation, or its cached printed module.
  mir::MContext mctx;
  std::optional<mir::OwnedModule> module;
  std::string mirText;
  bool mlirHit = false;
  if (useStageCache) {
    uint64_t key;
    {
      Scope span(&ledger, "flow.key");
      key = mlirStageKey(spec, design.config, options);
    }
    Scope span(&ledger, "flow.lookup");
    mlirHit = cache.lookupMlir(key, mirText);
  }
  if (!mlirHit) {
    {
      Scope span(&ledger, "mir.prepare");
      mir::OwnedModule built = spec.build(mctx, design.config);
      if (mir::verifyModule(built.get(), diags)) {
        mir::MPassManager pm;
        if (options.runMlirOpts)
          pm.add(mir::createCanonicalizePass());
        if (pm.run(built.get(), diags))
          module = std::move(built);
      }
    }
    if (!module)
      return failed("mir.prepare");
    if (useStageCache) {
      Scope span(&ledger, "mir.print");
      mirText = mir::printModule(module->get());
    }
  }

  // Stage 2: the flow's bridge leg, or a restore of its cached output.
  // The lir context outlives the module built in it.
  auto ctx = std::make_unique<lir::LContext>();
  std::unique_ptr<lir::Module> lmod;
  std::string lirText;
  adaptor::AdaptorOptions ao = options.adaptor;
  if (ao.topFunction.empty())
    ao.topFunction = options.synthesis.topFunction.empty()
                         ? spec.name
                         : options.synthesis.topFunction;
  bool bridgeHit = false;
  if (useStageCache) {
    uint64_t key;
    {
      Scope span(&ledger, "flow.key");
      key = isAdaptor ? adaptorBridgeKey(mirText, options, ao)
                      : hlsCppBridgeKey(mirText);
    }
    flow::StageCache::BridgeEntry entry;
    {
      Scope span(&ledger, "flow.lookup");
      bridgeHit = cache.lookupBridge(key, entry);
    }
    if (bridgeHit) {
      Scope restore(&ledger, "flow.restore");
      {
        Scope parse(&ledger, "lir.parse");
        lmod = lir::parseModule(entry.lirText, *ctx, diags);
      }
      ledger.count("lir.text_bytes", double(entry.lirText.size()));
      lirText = std::move(entry.lirText);
      if (!lmod)
        return failed("flow.restore");
    }
  }
  if (!bridgeHit) {
    if (!module) {
      Scope span(&ledger, "mir.parse");
      module = mir::parseModule(mirText, mctx, diags);
      if (!module)
        return failed("mir.parse");
    }
    int64_t insts = 0, blocks = 0;
    if (isAdaptor) {
      bool converted;
      {
        Scope span(&ledger, "mir.affine_to_scf");
        mir::MPassManager convert;
        convert.add(mir::createAffineToScfPass());
        convert.add(mir::createCanonicalizePass());
        converted = convert.run(module->get(), diags);
      }
      if (!converted)
        return failed("mir.affine_to_scf");
      {
        Scope span(&ledger, "lowering.lower");
        lmod = lowering::lowerToLIR(module->get(), *ctx, options.lowering,
                                    diags);
      }
      if (!lmod)
        return failed("lowering.lower");
      lir::countModuleSize(*lmod, insts, blocks);
      ledger.count("lowering.insts_out", double(insts));
      VerifyingInstrumentation verifier(ledger, diags);
      bool adapted;
      {
        Scope span(&ledger, "adaptor.pipeline");
        lir::PassManager pm(/*verifyEach=*/false);
        adaptor::buildAdaptorPipeline(pm, ao);
        pm.addInstrumentation(&verifier);
        adapted = pm.run(*lmod, diags);
      }
      if (!adapted || verifier.verifyFailed)
        return failed("adaptor.pipeline");
      lir::countModuleSize(*lmod, insts, blocks);
      ledger.count("adaptor.insts_out", double(insts));
    } else {
      std::string cpp;
      {
        Scope span(&ledger, "hlscpp.emit");
        cpp = hlscpp::emitHlsCpp(module->get(), diags);
      }
      if (cpp.empty())
        return failed("hlscpp.emit");
      ledger.count("hlscpp.cpp_bytes", double(cpp.size()));
      {
        Scope span(&ledger, "hlscpp.frontend");
        lmod = hlscpp::parseHlsCpp(cpp, *ctx, diags);
      }
      if (!lmod)
        return failed("hlscpp.frontend");
    }
    if (useStageCache) {
      Scope span(&ledger, "lir.print");
      lirText = lir::printModule(*lmod);
      ledger.count("lir.text_bytes", double(lirText.size()));
    }
  }

  // Stage 3: virtual HLS, or its cached report.
  vhls::SynthesisOptions synthOpts = options.synthesis;
  if (synthOpts.topFunction.empty())
    synthOpts.topFunction = spec.name;
  vhls::SynthesisReport report;
  bool synthHit = false;
  if (useStageCache) {
    uint64_t key;
    {
      Scope span(&ledger, "flow.key");
      key = flow::StageCache::synthKey(lirText, synthOpts);
    }
    Scope span(&ledger, "flow.lookup");
    synthHit = cache.lookupSynth(key, report);
  }
  if (!synthHit) {
    Scope span(&ledger, "vhls.synth");
    report = vhls::synthesize(*lmod, synthOpts, diags);
  }
  if (!report.accepted)
    return failed("vhls.synth");
  if (const vhls::FunctionReport *top = report.top())
    ledger.count("vhls.fsm_states", double(top->fsmStates));
  out.mlirHit = mlirHit;
  out.bridgeHit = bridgeHit;
  out.synthHit = synthHit;
  out.report = std::move(report);
  out.ctx = std::move(ctx);
  out.module = std::move(lmod);
  out.ok = true;
  return out;
}

bool ReplicaOutput::matches(const flow::FlowResult &run) const {
  return ok && run.module && report.json() == run.synth.json() &&
         lir::printModule(*module) == lir::printModule(*run.module);
}

} // namespace perfbench

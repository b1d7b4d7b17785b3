#include "lir/PassManager.h"

#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <ostream>

namespace mha::lir {

bool FunctionPass::run(Module &module, PassStats &stats,
                       DiagnosticEngine &diags) {
  bool changed = false;
  for (Function *fn : module.functions())
    changed |= runOnFunction(*fn, stats, diags);
  return changed;
}

FusedFunctionPass::FusedFunctionPass(
    std::vector<std::unique_ptr<FunctionPass>> passes)
    : passes_(std::move(passes)) {
  name_ = "fused<";
  for (size_t i = 0; i < passes_.size(); ++i) {
    if (i)
      name_ += "+";
    name_ += passes_[i]->name();
  }
  name_ += ">";
}

std::string FusedFunctionPass::name() const { return name_; }

bool FusedFunctionPass::runOnFunction(Function &fn, PassStats &stats,
                                      DiagnosticEngine &diags) {
  bool changed = false;
  for (auto &pass : passes_) {
    changed |= pass->runOnFunction(fn, stats, diags);
    if (diags.hadError())
      break;
  }
  return changed;
}

void countModuleSize(const Module &module, int64_t &insts, int64_t &blocks) {
  insts = 0;
  blocks = 0;
  for (const Function *fn : module.functions()) {
    for (const BasicBlock *bb : fn->blockPtrs()) {
      ++blocks;
      insts += static_cast<int64_t>(bb->size());
    }
  }
}

PrintIRInstrumentation::PrintIRInstrumentation(Options options,
                                               std::ostream &os)
    : options_(std::move(options)), os_(os) {}

namespace {

bool nameListed(const std::vector<std::string> &names,
                const std::string &name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

void PrintIRInstrumentation::beforePass(const ModulePass &pass,
                                        const Module &module) {
  if (!options_.beforeAll && !nameListed(options_.beforePasses, pass.name()))
    return;
  os_ << "*** IR before pass '" << pass.name() << "' ***\n"
      << printModule(module);
}

void PrintIRInstrumentation::afterPass(const ModulePass &pass,
                                       const Module &module,
                                       const PassRunRecord &record) {
  if (!options_.afterAll && !nameListed(options_.afterPasses, pass.name()))
    return;
  os_ << "*** IR after pass '" << pass.name() << "' ("
      << (record.changed ? "changed" : "no change") << ") ***\n"
      << printModule(module);
}

bool PassManager::runOnePass(ModulePass &pass, Module &module,
                             DiagnosticEngine &diags, PassRunRecord &record) {
  FunctionPass *fnPass = pass.asFunctionPass();
  std::vector<Function *> fns;
  if (fnPass && pool_)
    fns = module.functions();
  if (fns.size() < 2) {
    record.changed = pass.run(module, record.stats, diags);
    return record.changed;
  }

  // Function-at-a-time parallel execution. Each function gets its own
  // stats map and diagnostic engine so workers never share mutable state;
  // context-owned use-lists are lock-guarded for the duration (see
  // LContext::setParallelUseLists). Results merge in function order, so
  // stats and diagnostics are deterministic regardless of scheduling.
  LContext &ctx = module.context();
  const size_t n = fns.size();
  std::vector<PassStats> fnStats(n);
  std::vector<DiagnosticEngine> fnDiags(n);
  std::vector<char> fnChanged(n, 0);
  const std::string passName = pass.name();
  ctx.setParallelUseLists(true);
  try {
    TaskGroup group(*pool_);
    for (size_t i = 0; i < n; ++i) {
      Function *fn = fns[i];
      group.submit([&, fn, i] {
        int worker = ThreadPool::currentWorkerIndex();
        if (worker >= 0)
          telemetry::Tracer::setThreadLane(2000 + worker,
                                           strfmt("pass-worker %d", worker));
        telemetry::Span span(passName + " @" + fn->name(), "lir-pass-fn");
        fnChanged[i] = fnPass->runOnFunction(*fn, fnStats[i], fnDiags[i]);
      });
    }
    group.wait();
  } catch (...) {
    ctx.setParallelUseLists(false);
    throw;
  }
  ctx.setParallelUseLists(false);

  for (size_t i = 0; i < n; ++i) {
    record.changed |= fnChanged[i] != 0;
    for (const auto &[key, value] : fnStats[i])
      record.stats[key] += value;
    for (const Diagnostic &d : fnDiags[i].diagnostics()) {
      switch (d.severity) {
      case DiagSeverity::Error:
        diags.error(d.message, d.loc);
        break;
      case DiagSeverity::Warning:
        diags.warning(d.message, d.loc);
        break;
      case DiagSeverity::Note:
        diags.note(d.message, d.loc);
        break;
      }
    }
  }
  return record.changed;
}

bool PassManager::run(Module &module, DiagnosticEngine &diags) {
  records_.clear();
  telemetry::Tracer &tracer = telemetry::Tracer::global();
  bool verified = false; // the module is in the state last verified
  for (auto &pass : passes_) {
    PassRunRecord record;
    record.passName = pass->name();
    countModuleSize(module, record.instsBefore, record.blocksBefore);
    for (PassInstrumentation *instrumentation : instrumentations_)
      instrumentation->beforePass(*pass, module);
    telemetry::Span span(record.passName, "lir-pass");
    runOnePass(*pass, module, diags, record);
    record.millis = span.finish();
    metrics::recordPassDuration("lir", record.passName,
                                static_cast<int64_t>(record.millis * 1000.0));
    countModuleSize(module, record.instsAfter, record.blocksAfter);
    if (tracer.timePassesEnabled())
      tracer.recordPassTime("lir", record.passName, record.millis,
                            record.changed);
    for (auto it = instrumentations_.rbegin(); it != instrumentations_.rend();
         ++it)
      (*it)->afterPass(*pass, module, record);
    const bool changed = record.changed;
    records_.push_back(std::move(record));
    if (diags.hadError()) {
      diags.note(strfmt("pipeline aborted after pass '%s'",
                        pass->name().c_str()));
      return false;
    }
    if (!verifyEach_ || (verified && !changed))
      continue;
    telemetry::Span verifySpan("verify", "lir-verify");
    if (!verifyModule(module, diags)) {
      diags.note(strfmt("IR verification failed after pass '%s'",
                        pass->name().c_str()));
      return false;
    }
    verified = true;
  }
  return true;
}

PassStats PassManager::totalStats() const {
  PassStats total;
  for (const PassRunRecord &record : records_)
    for (const auto &[key, value] : record.stats)
      total[key] += value;
  return total;
}

} // namespace mha::lir

// PassManager.h - a minimal pass pipeline for MiniLLVM modules.
//
// Passes mutate the module in place and report statistics; the pipeline
// optionally verifies the IR as it goes (on by default — the adaptor's
// whole point is producing *valid* IR for a picky consumer). It verifies
// each distinct IR state once: after the first pass, and after every pass
// that reports a change. A pass that reports no change left the state
// last verified, so verifying again could find nothing new (and the
// verifier's renaming is idempotent). That makes a pass's `changed`
// result load-bearing: it must be true whenever the pass touched the IR.
//
// Observability: the pipeline is instrumented. Every pass run is wrapped
// in a telemetry span (category "lir-pass", so a Chrome trace shows the
// pass stack nested under its flow stage), records IR-delta statistics
// (instruction/block counts before vs. after), feeds the --time-passes
// aggregation when enabled, and fires registered PassInstrumentation
// hooks: before hooks in registration order, after hooks in reverse
// (LLVM-style), so paired instrumentations nest like scopes.
#pragma once

#include "support/Diagnostics.h"

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mha::lir {

class Function;
class Module;

/// A named statistic counter; passes use these for the adaptor report.
using PassStats = std::map<std::string, int64_t>;

class FunctionPass;

class ModulePass {
public:
  virtual ~ModulePass() = default;
  virtual std::string name() const = 0;
  /// Returns true if the IR changed. Must be true for any edit, renames
  /// included: the pass manager does not re-verify after a pass that
  /// returns false, so an unreported edit goes unverified.
  virtual bool run(Module &module, PassStats &stats,
                   DiagnosticEngine &diags) = 0;
  /// Non-null when this pass processes functions independently and may be
  /// fused with its neighbours (RTTI-free downcast).
  virtual FunctionPass *asFunctionPass() { return nullptr; }
};

/// A pass whose unit of work is one function, with no cross-function
/// dependencies, so consecutive function passes can be fused into one
/// traversal (FusedFunctionPass).
///
/// Contract for implementations: runOnFunction may read and create
/// context-owned values (constants, types) and mutate only `fn`'s own
/// instructions/blocks; it must not touch other functions' bodies or
/// module-level structure.
class FunctionPass : public ModulePass {
public:
  /// Returns true if `fn` changed (load-bearing, as for ModulePass::run).
  virtual bool runOnFunction(Function &fn, PassStats &stats,
                             DiagnosticEngine &diags) = 0;

  /// Serial default: runOnFunction over every function in order.
  bool run(Module &module, PassStats &stats, DiagnosticEngine &diags) override;

  FunctionPass *asFunctionPass() override { return this; }
};

/// Runs a fixed list of function passes back-to-back per function before
/// moving to the next one. Fusing the adaptor's cleanup groups this way
/// keeps a function hot in cache across sub-passes and replaces N
/// verifier runs (verifyEach) with one per group.
class FusedFunctionPass : public FunctionPass {
public:
  explicit FusedFunctionPass(std::vector<std::unique_ptr<FunctionPass>> passes);

  /// "fused<a+b+c>".
  std::string name() const override;

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &diags) override;

private:
  std::vector<std::unique_ptr<FunctionPass>> passes_;
  std::string name_;
};

/// Wraps a free function as a pass.
class LambdaPass : public ModulePass {
public:
  using Fn = std::function<bool(Module &, PassStats &, DiagnosticEngine &)>;
  LambdaPass(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  std::string name() const override { return name_; }
  bool run(Module &module, PassStats &stats, DiagnosticEngine &diags) override {
    return fn_(module, stats, diags);
  }

private:
  std::string name_;
  Fn fn_;
};

struct PassRunRecord {
  std::string passName;
  bool changed = false;
  double millis = 0;
  // IR-delta: module size around the pass, so per-pass shrink/growth is
  // visible without diffing printed IR.
  int64_t instsBefore = 0;
  int64_t instsAfter = 0;
  int64_t blocksBefore = 0;
  int64_t blocksAfter = 0;
  PassStats stats;
};

/// Observation hooks around each pass run. Implementations must not
/// mutate the module. Hooks run on the thread executing the pipeline;
/// one PassManager (and therefore one hook sequence) is always confined
/// to a single thread, but distinct pipelines run concurrently under the
/// batch driver, so implementations shared across PassManagers must be
/// thread-safe.
class PassInstrumentation {
public:
  virtual ~PassInstrumentation() = default;
  virtual void beforePass(const ModulePass &, const Module &) {}
  /// `record` is fully populated (timing, IR delta, stats) when this runs.
  virtual void afterPass(const ModulePass &, const Module &,
                         const PassRunRecord &) {}
};

/// Prints the module around selected passes (--print-ir-before/after).
class PrintIRInstrumentation : public PassInstrumentation {
public:
  struct Options {
    bool beforeAll = false;
    bool afterAll = false;
    std::vector<std::string> beforePasses; // pass names
    std::vector<std::string> afterPasses;
  };

  PrintIRInstrumentation(Options options, std::ostream &os);

  void beforePass(const ModulePass &pass, const Module &module) override;
  void afterPass(const ModulePass &pass, const Module &module,
                 const PassRunRecord &record) override;

private:
  Options options_;
  std::ostream &os_;
};

/// Counts instructions and basic blocks over every function in `module`.
void countModuleSize(const Module &module, int64_t &insts, int64_t &blocks);

class PassManager {
public:
  /// With `verifyEach`, run() calls verifyModule after the first pass and
  /// after every pass whose PassRunRecord::changed is true, each inside a
  /// telemetry span ("verify", category "lir-verify"). Verification also
  /// canonicalizes value names (see Verifier.h), so the printed IR depends
  /// on this schedule. Without it, nothing is verified or renamed.
  explicit PassManager(bool verifyEach = true) : verifyEach_(verifyEach) {}

  void add(std::unique_ptr<ModulePass> pass) {
    passes_.push_back(std::move(pass));
  }
  void add(std::string name, LambdaPass::Fn fn) {
    passes_.push_back(
        std::make_unique<LambdaPass>(std::move(name), std::move(fn)));
  }

  /// Registers an observation hook (not owned; must outlive run()).
  void addInstrumentation(PassInstrumentation *instrumentation) {
    instrumentations_.push_back(instrumentation);
  }

  /// Runs every pass in order. Returns false if a pass errored or a
  /// post-pass verification failed (remaining passes are skipped; the
  /// diagnostics end with "IR verification failed after pass '<name>'").
  bool run(Module &module, DiagnosticEngine &diags);

  const std::vector<PassRunRecord> &records() const { return records_; }

  /// Aggregated statistics over all pass runs.
  PassStats totalStats() const;

private:
  bool verifyEach_;
  std::vector<std::unique_ptr<ModulePass>> passes_;
  std::vector<PassInstrumentation *> instrumentations_;
  std::vector<PassRunRecord> records_;
};

} // namespace mha::lir

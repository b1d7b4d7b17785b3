// The `changed` flag a pass returns is load-bearing: with verifyEach the
// lir pass manager skips the verifier after a pass that reports no change,
// because the verifier also canonicalizes value names. A pass that edits
// the IR and reports no change would leave names unverified and
// uncanonical. These tests print the module around every pass of the
// real pipelines and fail when a pass reports no change but the printed
// text differs.
#include "adaptor/Adaptor.h"
#include "flow/Kernels.h"
#include "fuzz/ProgramGen.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/transforms/MirTransforms.h"

#include <gtest/gtest.h>

using namespace mha;

namespace {

/// Records every pass that reported no change but changed the printed IR.
class ChangedFlagCheck : public lir::PassInstrumentation {
public:
  void beforePass(const lir::ModulePass &,
                  const lir::Module &module) override {
    before_ = lir::printModule(module);
  }
  void afterPass(const lir::ModulePass &pass, const lir::Module &module,
                 const lir::PassRunRecord &record) override {
    ++checked_;
    if (!record.changed && lir::printModule(module) != before_)
      dishonest_.push_back(pass.name());
  }

  int checked() const { return checked_; }
  /// "pass, pass, ..." for every dishonest run (empty when all honest).
  std::string dishonest() const {
    std::string out;
    for (const std::string &name : dishonest_)
      out += (out.empty() ? "" : ", ") + name;
    return out;
  }

private:
  std::string before_;
  std::vector<std::string> dishonest_;
  int checked_ = 0;
};

/// Runs `pm` over `module` with the check attached.
void runChecked(lir::PassManager &pm, lir::Module &module,
                const std::string &what) {
  ChangedFlagCheck check;
  pm.addInstrumentation(&check);
  DiagnosticEngine diags;
  EXPECT_TRUE(pm.run(module, diags)) << what << ": " << diags.str();
  EXPECT_GT(check.checked(), 0) << what;
  EXPECT_EQ(check.dishonest(), "") << what;
}

/// Builds `kernel` and runs the shared MLIR preparation on it.
mir::OwnedModule preparedMlir(mir::MContext &mctx,
                              const flow::KernelSpec &spec,
                              const flow::KernelConfig &config) {
  DiagnosticEngine diags;
  mir::OwnedModule module = spec.build(mctx, config);
  mir::MPassManager pm;
  pm.add(mir::createCanonicalizePass());
  EXPECT_TRUE(pm.run(module.get(), diags)) << diags.str();
  return module;
}

struct GridPoint {
  const flow::KernelSpec *spec;
  flow::KernelConfig config;
  std::string name() const {
    return spec->name + " u=" + std::to_string(config.unrollFactor) +
           " p=" + std::to_string(config.partitionFactor);
  }
};

std::vector<GridPoint> gridPoints() {
  std::vector<GridPoint> points;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t unroll : {1, 4})
      for (int64_t partition : {1, 4}) {
        GridPoint point{&spec, {}};
        point.config.unrollFactor = unroll;
        point.config.partitionFactor = partition;
        points.push_back(point);
      }
  return points;
}

} // namespace

TEST(ChangedFlag, AdaptorPipelineIsHonestOnEveryKernel) {
  for (const GridPoint &point : gridPoints())
    for (bool fuse : {false, true}) {
      mir::MContext mctx;
      mir::OwnedModule mlir = preparedMlir(mctx, *point.spec, point.config);
      DiagnosticEngine diags;
      mir::MPassManager convert;
      convert.add(mir::createAffineToScfPass());
      convert.add(mir::createCanonicalizePass());
      ASSERT_TRUE(convert.run(mlir.get(), diags)) << diags.str();
      lir::LContext ctx;
      std::unique_ptr<lir::Module> module =
          lowering::lowerToLIR(mlir.get(), ctx, {}, diags);
      ASSERT_NE(module, nullptr) << diags.str();

      adaptor::AdaptorOptions options;
      options.topFunction = point.spec->name;
      options.fusePasses = fuse;
      lir::PassManager pm(/*verifyEach=*/true);
      adaptor::buildAdaptorPipeline(pm, options);
      runChecked(pm, *module, point.name() + (fuse ? " fused" : ""));
    }
}

TEST(ChangedFlag, HlsCppFrontendPipelineIsHonestOnEveryKernel) {
  for (const GridPoint &point : gridPoints()) {
    mir::MContext mctx;
    mir::OwnedModule mlir = preparedMlir(mctx, *point.spec, point.config);
    DiagnosticEngine diags;
    std::string cpp = hlscpp::emitHlsCpp(mlir.get(), diags);
    ASSERT_FALSE(cpp.empty()) << diags.str();
    lir::LContext ctx;
    std::unique_ptr<lir::Module> module =
        hlscpp::parseHlsCpp(cpp, ctx, diags, /*optimize=*/false);
    ASSERT_NE(module, nullptr) << diags.str();

    lir::PassManager pm(/*verifyEach=*/true);
    hlscpp::buildFrontendPipeline(pm);
    runChecked(pm, *module, point.name());
  }
}

TEST(ChangedFlag, CallLegalizationIsHonestOnFuzzPrograms) {
  // Calls-mode programs exercise what the kernels never do: rec2iter,
  // the inliner and callsite privatization, followed by the cleanups.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz::CallProgram program = fuzz::ProgramGen(seed).genCalls();
    std::string text = program.lir();
    lir::LContext ctx;
    DiagnosticEngine diags;
    std::unique_ptr<lir::Module> module = lir::parseModule(text, ctx, diags);
    ASSERT_NE(module, nullptr) << diags.str() << "\n" << text;

    adaptor::AdaptorOptions options;
    options.topFunction = "fuzz_calls";
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::buildAdaptorPipeline(pm, options);
    hlscpp::buildFrontendPipeline(pm);
    runChecked(pm, *module, "seed " + std::to_string(seed));
  }
}

// Tests for the HLS adaptor (the paper's contribution): each stage in
// isolation, the full pipeline, and the ablation behaviour — disabling a
// stage must leave IR the HLS frontend rejects.
#include "adaptor/Adaptor.h"
#include "adaptor/ShapeInfo.h"
#include "flow/Kernels.h"
#include "lir/LContext.h"
#include "lir/HlsCompat.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/transforms/Transforms.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/transforms/MirTransforms.h"

#include <gtest/gtest.h>

using namespace mha;

namespace {

/// Lowers a kernel to the modern IR the adaptor consumes.
struct ModernIR {
  mir::MContext mctx;
  lir::LContext lctx;
  std::unique_ptr<lir::Module> module;

  explicit ModernIR(const std::string &kernel,
                    flow::KernelConfig config = {}) {
    const flow::KernelSpec *spec = flow::findKernel(kernel);
    DiagnosticEngine diags;
    mir::OwnedModule mod = spec->build(mctx, config);
    mir::MPassManager pm;
    pm.add(mir::createCanonicalizePass());
    pm.add(mir::createAffineToScfPass());
    pm.add(mir::createCanonicalizePass());
    EXPECT_TRUE(pm.run(mod.get(), diags)) << diags.str();
    module = lowering::lowerToLIR(mod.get(), lctx, {}, diags);
    EXPECT_NE(module, nullptr) << diags.str();
  }

  lir::PassStats run(const adaptor::AdaptorOptions &options) {
    lir::PassManager pm(/*verifyEach=*/true);
    adaptor::buildAdaptorPipeline(pm, options);
    DiagnosticEngine diags;
    EXPECT_TRUE(pm.run(*module, diags)) << diags.str();
    return pm.totalStats();
  }

  lir::PassStats runSingle(std::unique_ptr<lir::ModulePass> pass) {
    lir::PassManager pm(/*verifyEach=*/true);
    pm.add(std::move(pass));
    DiagnosticEngine diags;
    EXPECT_TRUE(pm.run(*module, diags)) << diags.str();
    return pm.totalStats();
  }

  lir::HlsCompatReport compat() {
    DiagnosticEngine diags;
    return lir::checkHlsCompatibility(*module, diags);
  }
};

} // namespace

TEST(AdaptorPipeline, GemmBecomesAccepted) {
  ModernIR ir("gemm");
  // Before: rejected for multiple reasons.
  lir::HlsCompatReport before = ir.compat();
  EXPECT_FALSE(before.accepted);
  EXPECT_GT(before.violations["opaque-pointers"], 0);
  EXPECT_GT(before.violations["descriptor-arg"], 0);
  EXPECT_GT(before.violations["intrinsic-call"], 0);
  EXPECT_GT(before.violations["modern-metadata"], 0);
  EXPECT_GT(before.violations["bad-attribute"], 0);

  lir::PassStats stats = ir.run({});
  EXPECT_EQ(stats["adaptor.descriptors-eliminated"], 3);
  EXPECT_GT(stats["adaptor.geps-delinearized"], 0);
  EXPECT_GT(stats["adaptor.pointers-typed"], 0);
  EXPECT_GT(stats["adaptor.loop-directives-converted"], 0);

  lir::HlsCompatReport after = ir.compat();
  EXPECT_TRUE(after.accepted) << lir::printModule(*ir.module);
  EXPECT_EQ(after.warnings, 0);
}

TEST(AdaptorPipeline, AllKernelsBecomeAccepted) {
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    flow::KernelConfig config;
    config.partitionFactor = 2;
    ModernIR ir(spec.name, config);
    ir.run({});
    lir::HlsCompatReport report = ir.compat();
    EXPECT_TRUE(report.accepted) << spec.name;
    EXPECT_EQ(report.warnings, 0) << spec.name;
  }
}

TEST(DescriptorElimination, FlattensSignature) {
  ModernIR ir("gemm");
  lir::Function *fn = ir.module->getFunction("gemm");
  EXPECT_EQ(fn->numArgs(), 21u);
  lir::PassStats stats =
      ir.runSingle(adaptor::createDescriptorEliminationPass());
  EXPECT_EQ(stats["adaptor.descriptors-eliminated"], 3);
  EXPECT_EQ(stats["adaptor.descriptor-args-folded"], 18);
  EXPECT_EQ(fn->numArgs(), 3u);
  for (const auto &arg : fn->args()) {
    EXPECT_TRUE(arg->type()->isPointer());
    EXPECT_NE(arg->getMetadata("mha.shape"), nullptr);
    EXPECT_TRUE(arg->hasAttr("noalias"));
  }
  DiagnosticEngine diags;
  EXPECT_TRUE(lir::verifyModule(*ir.module, diags)) << diags.str();
}

TEST(GepCanonicalize, RecoversShapedGeps) {
  ModernIR ir("gemm");
  ir.runSingle(adaptor::createDescriptorEliminationPass());
  ir.runSingle(lir::createInstCombinePass());
  lir::PassStats stats = ir.runSingle(adaptor::createGepCanonicalizePass());
  EXPECT_GT(stats["adaptor.geps-delinearized"], 0);
  EXPECT_EQ(stats["adaptor.geps-kept-flat"], 0);
  std::string out = lir::printModule(*ir.module);
  EXPECT_NE(out.find("getelementptr [32 x [32 x double]]"),
            std::string::npos);
}

TEST(GepCanonicalize, ReshapesAllocas) {
  ModernIR ir("mm2");
  ir.runSingle(adaptor::createDescriptorEliminationPass());
  ir.runSingle(lir::createInstCombinePass());
  lir::PassStats stats = ir.runSingle(adaptor::createGepCanonicalizePass());
  EXPECT_EQ(stats["adaptor.allocas-reshaped"], 1);
  std::string out = lir::printModule(*ir.module);
  EXPECT_NE(out.find("alloca [32 x [32 x double]]"), std::string::npos);
}

TEST(GepCanonicalize, Delinearization) {
  // Direct unit test of the linear decomposition helper.
  lir::LContext ctx;
  auto linear = adaptor::decomposeLinear(ctx.constI64(77));
  ASSERT_TRUE(linear.has_value());
  EXPECT_EQ(linear->constant, 77);
  EXPECT_TRUE(linear->terms.empty());
}

TEST(IntrinsicLegalize, ExpandsFMulAdd) {
  ModernIR ir("gemm");
  ir.runSingle(adaptor::createDescriptorEliminationPass());
  lir::PassStats stats = ir.runSingle(adaptor::createIntrinsicLegalizePass());
  EXPECT_EQ(stats["adaptor.fmuladd-expanded"], 1);
  std::string out = lir::printModule(*ir.module);
  EXPECT_EQ(out.find("llvm.fmuladd"), std::string::npos);
  EXPECT_NE(out.find("fmul"), std::string::npos);
  EXPECT_NE(out.find("fadd"), std::string::npos);
}

TEST(IntrinsicLegalize, ExpandsMemcpyToLoopNest) {
  // Build IR with a memcpy via the parser.
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = lir::parseModule(R"(
!flag opaque-pointers = "true"
declare void @llvm.memcpy.p0.p0.i64(ptr, ptr, i64)

define void @f(ptr !mha.shape !{!"f64", i64 2, i64 4, i64 4} %dst, ptr !mha.shape !{!"f64", i64 2, i64 4, i64 4} %src) {
entry:
  call void @llvm.memcpy.p0.p0.i64(ptr %dst, ptr %src, i64 128)
  ret void
}
)",
                                 ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  lir::PassManager pm(true);
  pm.add(adaptor::createIntrinsicLegalizePass());
  ASSERT_TRUE(pm.run(*module, diags)) << diags.str();
  EXPECT_EQ(pm.totalStats().at("adaptor.memcpy-expanded"), 1);
  std::string out = lir::printModule(*module);
  EXPECT_EQ(out.find("llvm.memcpy"), std::string::npos);
  // Rank-2 copy nest: two loop headers.
  EXPECT_NE(out.find("copy0.header"), std::string::npos);
  EXPECT_NE(out.find("copy1.header"), std::string::npos);
  EXPECT_NE(out.find("xlx.pipeline"), std::string::npos);
}

TEST(PointerTypeRecovery, TypesEverything) {
  ModernIR ir("gemm");
  ir.runSingle(adaptor::createDescriptorEliminationPass());
  ir.runSingle(adaptor::createIntrinsicLegalizePass());
  ir.runSingle(lir::createInstCombinePass());
  ir.runSingle(adaptor::createGepCanonicalizePass());
  lir::PassStats stats =
      ir.runSingle(adaptor::createPointerTypeRecoveryPass());
  EXPECT_GT(stats["adaptor.pointers-typed"], 0);
  EXPECT_TRUE(ir.module->flagIs("opaque-pointers", "false"));
  std::string out = lir::printModule(*ir.module);
  EXPECT_EQ(out.find(" ptr "), std::string::npos) << out;
  EXPECT_NE(out.find("[32 x [32 x double]]*"), std::string::npos);
}

TEST(MetadataConvert, RenamesDirectives) {
  flow::KernelConfig config;
  config.pipelineII = 2;
  config.partitionFactor = 4;
  ModernIR ir("gemm", config);
  ir.runSingle(adaptor::createDescriptorEliminationPass());
  lir::PassStats stats = ir.runSingle(adaptor::createMetadataConvertPass());
  EXPECT_GT(stats["adaptor.loop-directives-converted"], 0);
  EXPECT_EQ(stats["adaptor.partitions-converted"], 2);
  std::string out = lir::printModule(*ir.module);
  EXPECT_EQ(out.find("llvm.loop."), std::string::npos);
  EXPECT_NE(out.find("!xlx.pipeline !{i64 2}"), std::string::npos);
  EXPECT_NE(out.find("xlx.array_partition"), std::string::npos);
  EXPECT_EQ(out.find("mha.partition="), std::string::npos);
}

// Regression: the numbers of a partition attribute and the width of a
// shape's "iN" element went through std::stoul/std::stoll, so a malformed
// module made `mha-opt --passes=adaptor` abort instead of diagnosing it.
TEST(MetadataConvert, MalformedNumbersAreDiagnosedNotThrown) {
  for (const char *attr : {"mha.partition=x:1:4:cyclic",
                           "mha.partition=0:99999999999999999999:4:cyclic",
                           "mha.partition=-1:1:4:cyclic"}) {
    lir::LContext ctx;
    DiagnosticEngine diags;
    auto module = lir::parseModule(
        std::string("define void @f(ptr %A) #[") + attr +
            "] {\nentry:\n  ret void\n}\n",
        ctx, diags);
    ASSERT_NE(module, nullptr) << diags.str();
    lir::PassManager pm(/*verifyEach=*/false);
    pm.add(adaptor::createMetadataConvertPass());
    EXPECT_FALSE(pm.run(*module, diags)) << attr;
    EXPECT_NE(diags.str().find("partition attribute"), std::string::npos)
        << diags.str();
  }
  for (const char *elem : {"ifoo", "i99999999999999999999", "i0"}) {
    lir::LContext ctx;
    DiagnosticEngine diags;
    auto module = lir::parseModule(
        std::string("define void @f(ptr !mha.shape !{!\"") + elem +
            "\", i64 1, i64 4} %A) {\nentry:\n  ret void\n}\n",
        ctx, diags);
    ASSERT_NE(module, nullptr) << diags.str();
    lir::Function *fn = module->getFunction("f");
    EXPECT_FALSE(adaptor::shapeOf(fn->arg(0), ctx).has_value()) << elem;
  }
}

TEST(AttributeScrub, RemovesModernAttrs) {
  ModernIR ir("gemm");
  lir::Function *fn = ir.module->getFunction("gemm");
  EXPECT_TRUE(fn->hasAttr("mustprogress"));
  lir::PassStats stats = ir.runSingle(adaptor::createAttributeScrubPass());
  EXPECT_GE(stats["adaptor.fn-attrs-scrubbed"], 5);
  EXPECT_FALSE(fn->hasAttr("mustprogress"));
  EXPECT_FALSE(fn->hasAttr("memory(argmem: readwrite)"));
  // noalias on pointer args survives.
  // (args are still descriptor-form here; aligned ptr had noalias)
  bool anyNoalias = false;
  for (const auto &arg : fn->args())
    anyNoalias |= arg->hasAttr("noalias");
  EXPECT_TRUE(anyNoalias);
}

// --- Ablation: removing any stage leaves rejected IR. ---

namespace {

lir::HlsCompatReport runAblation(const std::string &kernel,
                                 void (*disable)(adaptor::AdaptorOptions &)) {
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  ModernIR ir(kernel, config);
  adaptor::AdaptorOptions options;
  options.verifyCompat = false; // we check manually
  disable(options);
  lir::PassManager pm(true);
  adaptor::buildAdaptorPipeline(pm, options);
  DiagnosticEngine diags;
  EXPECT_TRUE(pm.run(*ir.module, diags)) << diags.str();
  return ir.compat();
}

} // namespace

TEST(AdaptorAblation, WithoutDescriptorElimination) {
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runDescriptorElimination = false;
  });
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.violations["descriptor-arg"] +
                report.violations["opaque-pointers"],
            0);
}

TEST(AdaptorAblation, WithoutIntrinsicLegalize) {
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runIntrinsicLegalize = false;
  });
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.violations["intrinsic-call"], 0);
}

TEST(AdaptorAblation, WithoutPointerRecovery) {
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runPointerTypeRecovery = false;
  });
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.violations["opaque-pointers"], 0);
}

TEST(AdaptorAblation, WithoutMetadataConvert) {
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runMetadataConvert = false;
  });
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.violations["modern-metadata"], 0);
}

TEST(AdaptorAblation, WithoutAttributeScrub) {
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runAttributeScrub = false;
  });
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.violations["bad-attribute"], 0);
}

TEST(AdaptorAblation, WithoutGepCanonicalizeOnlyWarns) {
  // Flat GEPs are a QoR problem, not a rejection: warnings, no errors.
  auto report = runAblation("gemm", [](adaptor::AdaptorOptions &o) {
    o.runGepCanonicalize = false;
  });
  EXPECT_TRUE(report.accepted);
  EXPECT_GT(report.violations["unshaped-gep"], 0);
}

// Tests for the baseline flow pieces: the HLS C++ emitter and the C-subset
// HLS frontend.
#include "flow/Kernels.h"
#include "hlscpp/Emitter.h"
#include "lir/LContext.h"
#include "hlscpp/Frontend.h"
#include "interp/Interp.h"
#include "lir/HlsCompat.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "mir/Builder.h"
#include "mir/Pass.h"
#include "mir/transforms/MirTransforms.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

using namespace mha;

namespace {

std::string emitKernel(const std::string &name,
                       const flow::KernelConfig &config) {
  const flow::KernelSpec *spec = flow::findKernel(name);
  mir::MContext mctx;
  DiagnosticEngine diags;
  mir::OwnedModule module = spec->build(mctx, config);
  std::string code = hlscpp::emitHlsCpp(module.get(), diags);
  EXPECT_FALSE(code.empty()) << diags.str();
  return code;
}

} // namespace

TEST(HlsCppEmitter, GemmShape) {
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 4;
  config.partitionFactor = 2;
  std::string code = emitKernel("gemm", config);
  EXPECT_NE(code.find("void gemm(double a0[32][32]"), std::string::npos);
  EXPECT_NE(code.find("#pragma HLS pipeline II=1"), std::string::npos);
  EXPECT_NE(code.find("#pragma HLS unroll factor=4"), std::string::npos);
  EXPECT_NE(code.find("#pragma HLS array_partition"), std::string::npos);
  // Vitis pragmas use 1-based dims.
  EXPECT_NE(code.find("dim=2"), std::string::npos);
  // Three nested loops.
  EXPECT_NE(code.find("for (int i0 = 0; i0 < 32; i0 += 1)"),
            std::string::npos);
}

TEST(HlsCppEmitter, NoDirectivesWhenDisabled) {
  flow::KernelConfig config;
  config.applyDirectives = false;
  config.pipelineII = 1;
  config.partitionFactor = 4;
  std::string code = emitKernel("gemm", config);
  EXPECT_EQ(code.find("#pragma"), std::string::npos);
}

TEST(HlsCppEmitter, LocalArrayFor2mm) {
  std::string code = emitKernel("mm2", {});
  // The tmp buffer becomes a local C array.
  EXPECT_NE(code.find("[32][32];"), std::string::npos);
}

TEST(HlsCppEmitter, AllKernelsEmit) {
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    std::string code = emitKernel(spec.name, {});
    EXPECT_NE(code.find("void " + spec.name + "("), std::string::npos)
        << spec.name;
  }
}

TEST(HlsFrontend, ParsesSimpleFunction) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void scale(double a[16], double f) {
  for (int i = 0; i < 16; i += 1) {
    #pragma HLS pipeline II=1
    double v = a[i];
    a[i] = v * f;
  }
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  DiagnosticEngine verifyDiags;
  EXPECT_TRUE(lir::verifyModule(*module, verifyDiags)) << verifyDiags.str();

  lir::Function *fn = module->getFunction("scale");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(fn->numArgs(), 2u);
  // Array parameter decays to a typed array pointer.
  auto *pt = dyn_cast<lir::PointerType>(fn->arg(0)->type());
  ASSERT_NE(pt, nullptr);
  EXPECT_FALSE(pt->isOpaque());
  EXPECT_TRUE(pt->pointee()->isArray());

  // The pipeline pragma landed as xlx metadata, O2-lite promoted locals.
  std::string out = lir::printModule(*module);
  EXPECT_NE(out.find("xlx.pipeline"), std::string::npos);
  EXPECT_NE(out.find("xlx.tripcount !{i64 16}"), std::string::npos);
  EXPECT_EQ(out.find("alloca"), std::string::npos) << out;
}

TEST(HlsFrontend, ProducesAcceptedIR) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[8][8]) {
#pragma HLS array_partition variable=a cyclic factor=2 dim=2
  for (int i = 0; i < 8; i += 1) {
    for (int j = 0; j < 8; j += 1) {
      #pragma HLS pipeline II=1
      a[i][j] = a[i][j] + 1.0;
    }
  }
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  DiagnosticEngine compatDiags;
  lir::HlsCompatReport report =
      lir::checkHlsCompatibility(*module, compatDiags);
  EXPECT_TRUE(report.accepted) << compatDiags.str();
  EXPECT_EQ(report.warnings, 0) << compatDiags.str();
  // Partition metadata on the argument.
  lir::Function *fn = module->getFunction("k");
  EXPECT_NE(fn->arg(0)->getMetadata("xlx.array_partition"), nullptr);
}

// Regression: pragma values went through std::stoll, which threw out of
// parseHlsCpp on a malformed or out-of-range number.
TEST(HlsFrontend, MalformedPragmaValueIsALocatedError) {
  const char *pragmas[][2] = {
      {"#pragma HLS array_partition variable=a cyclic factor=x dim=1", ""},
      {"#pragma HLS array_partition variable=a cyclic factor=2 "
       "dim=99999999999999999999",
       ""},
      {"", "#pragma HLS pipeline II=abc"},
      {"", "#pragma HLS unroll factor=4x"},
  };
  for (const auto &[fnPragma, loopPragma] : pragmas) {
    lir::LContext ctx;
    DiagnosticEngine diags;
    std::string source = std::string("void k(double a[8]) {\n") + fnPragma +
                         "\n  for (int i = 0; i < 8; i += 1) {\n    " +
                         loopPragma + "\n    a[i] = 1.0;\n  }\n}\n";
    EXPECT_EQ(hlscpp::parseHlsCpp(source, ctx, diags), nullptr) << source;
    ASSERT_TRUE(diags.hadError()) << source;
    const Diagnostic &error = diags.diagnostics().front();
    EXPECT_NE(error.message.find("bad pragma value"), std::string::npos)
        << diags.str();
    EXPECT_EQ(error.loc.line, *fnPragma ? 2 : 4) << diags.str();
  }
}

TEST(HlsFrontend, CanonicalLoopShapeAfterO2) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[32]) {
  for (int i = 0; i < 32; i += 1) {
    a[i] = a[i] * 2.0;
  }
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  lir::Function *fn = module->getFunction("k");
  lir::DominatorTree domTree(*fn);
  lir::LoopInfo loopInfo(*fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 1u);
  auto canonical = lir::matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value()) << lir::printModule(*fn->parentModule());
  EXPECT_EQ(*canonical->tripCount, 32);
  // Pipelinable shape: header + single body/latch block.
  EXPECT_EQ(canonical->loop->blocks().size(), 2u);
}

TEST(HlsFrontend, ScalarParamsAndCasts) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[4], int n) {
  double s = (double)n;
  a[0] = s + 0.5;
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  std::string out = lir::printModule(*module);
  EXPECT_NE(out.find("sitofp"), std::string::npos);
}

TEST(HlsFrontend, MathCallsMapToHlsCores) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[4]) {
  a[0] = sqrt(a[1]);
  a[2] = fabs(a[3]);
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  std::string out = lir::printModule(*module);
  EXPECT_NE(out.find("call double @hls_sqrt"), std::string::npos);
  EXPECT_NE(out.find("call double @hls_fabs"), std::string::npos);
}

TEST(HlsFrontend, TernaryExpression) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[4]) {
  double x = a[0];
  a[1] = x > 0.0 ? x : -x;
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  std::string out = lir::printModule(*module);
  EXPECT_NE(out.find("select"), std::string::npos);
  EXPECT_NE(out.find("fcmp ogt"), std::string::npos);
}

TEST(HlsFrontend, RejectsUnknownVariable) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp("void k(double a[4]) { a[0] = bogus; }",
                                    ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_NE(diags.str().find("unknown variable"), std::string::npos);
}

TEST(HlsFrontend, RejectsUnsupportedCall) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(
      "void k(double a[4]) { a[0] = launch_rockets(a[1]); }", ctx, diags);
  EXPECT_EQ(module, nullptr);
}

TEST(HlsRoundTrip, EmittedGemmComputesCorrectly) {
  // MLIR -> C++ -> frontend -> interp must equal the host reference.
  const flow::KernelSpec *spec = flow::findKernel("gemm");
  std::string code = emitKernel("gemm", {});
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(code, ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str() << code;

  flow::Buffers device = flow::makeBuffers(*spec);
  flow::seedBuffers(device);
  flow::Buffers host = device;
  spec->reference(host);

  std::vector<void *> pointers;
  for (auto &buffer : device)
    pointers.push_back(buffer.data());
  interp::Interpreter interp(*module);
  DiagnosticEngine runDiags;
  auto result = interp.run(module->getFunction("gemm"),
                           interp::pointerArgs(pointers), runDiags);
  ASSERT_TRUE(result.has_value()) << runDiags.str();
  for (unsigned out : spec->outputs)
    for (size_t i = 0; i < device[out].size(); ++i)
      ASSERT_EQ(device[out][i], host[out][i]) << "element " << i;
}

// Regression: the emitter used to print every integer as C "int", so a
// 64-bit constant silently truncated to 32 bits when the C++ was parsed
// back (or fed to a real HLS compiler).
TEST(HlsCppEmitter, WideIntegerValuesEmitAsInt64) {
  mir::MContext mctx;
  mir::OpBuilder b(mctx);
  mir::OwnedModule module = mir::OpBuilder::createModule();
  b.setInsertPoint(module.get().body());
  mir::FuncOp fn = b.createFunc(
      "wide", mctx.fnTy({mctx.memrefTy({2}, mctx.f64())}, {}));
  b.setInsertPoint(fn.entryBlock());
  mir::ForOp loop = b.affineFor(0, 2);
  b.setInsertPointToLoopBody(loop);
  mir::Value *iv = b.indexCast(loop.inductionVar(), mctx.i64());
  mir::Value *big = b.constantInt(INT64_MAX, mctx.i64());
  mir::Value *sum = b.binary(mir::ops::AddI, iv, big);
  b.affineStore(b.sitofp(sum, mctx.f64()), fn.arg(0),
                mir::AffineMap::identity(mctx, 1),
                {loop.inductionVar()});
  b.setInsertPoint(fn.entryBlock());
  b.createReturn();

  DiagnosticEngine diags;
  std::string code = hlscpp::emitHlsCpp(module.get(), diags);
  ASSERT_FALSE(code.empty()) << diags.str();
  EXPECT_NE(code.find("int64_t"), std::string::npos) << code;
  EXPECT_NE(code.find("9223372036854775807"), std::string::npos) << code;
  EXPECT_NE(code.find("#include <stdint.h>"), std::string::npos) << code;

  // And the frontend must round-trip it at full width: at i0 = 1 the sum
  // wraps to INT64_MIN; a 32-bit pipeline would produce 0 instead.
  lir::LContext ctx;
  auto parsed = hlscpp::parseHlsCpp(code, ctx, diags);
  ASSERT_NE(parsed, nullptr) << diags.str() << code;
  double out[2] = {0, 0};
  std::vector<void *> pointers = {out};
  interp::Interpreter interp(*parsed);
  DiagnosticEngine runDiags;
  auto result = interp.run(parsed->getFunction("wide"),
                           interp::pointerArgs(pointers), runDiags);
  ASSERT_TRUE(result.has_value()) << runDiags.str();
  EXPECT_EQ(out[0], static_cast<double>(INT64_MAX));
  EXPECT_EQ(out[1], static_cast<double>(INT64_MIN));
}

// Regression: a decimal literal outside int range kept type int (C rule:
// it is long long), folding e.g. INT64_MAX to -1.
TEST(HlsFrontend, WideLiteralKeepsSixtyFourBits) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[1]) {
  int64_t v = 9223372036854775807;
  a[0] = (double)v;
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  double out[1] = {0};
  std::vector<void *> pointers = {out};
  interp::Interpreter interp(*module);
  DiagnosticEngine runDiags;
  auto result = interp.run(module->getFunction("k"),
                           interp::pointerArgs(pointers), runDiags);
  ASSERT_TRUE(result.has_value()) << runDiags.str();
  EXPECT_EQ(out[0], static_cast<double>(INT64_MAX));
}

// Regression: constant folding can produce inf/nan, which the emitter
// used to print as "inf" — unparseable C++. It now uses the math.h
// macros, and the frontend understands them.
TEST(HlsFrontend, InfinityAndNanMacros) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[3]) {
  a[0] = INFINITY;
  a[1] = -INFINITY;
  a[2] = NAN;
}
)",
                                    ctx, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  double out[3] = {0, 0, 0};
  std::vector<void *> pointers = {out};
  interp::Interpreter interp(*module);
  DiagnosticEngine runDiags;
  auto result = interp.run(module->getFunction("k"),
                           interp::pointerArgs(pointers), runDiags);
  ASSERT_TRUE(result.has_value()) << runDiags.str();
  EXPECT_TRUE(std::isinf(out[0]) && out[0] > 0);
  EXPECT_TRUE(std::isinf(out[1]) && out[1] < 0);
  EXPECT_TRUE(std::isnan(out[2]));
}

// Regression: float literals used to go through std::stod (locale
// dependent, throwing); the strict parser must reject out-of-range and
// malformed literals with a diagnostic instead of crashing.
TEST(HlsFrontend, RejectsHugeFloatLiteral) {
  lir::LContext ctx;
  DiagnosticEngine diags;
  auto module = hlscpp::parseHlsCpp(R"(
void k(double a[1]) {
  a[0] = 1.0e999;
}
)",
                                    ctx, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_TRUE(diags.hadError());
}

// Regression: the recursive descent had no depth limit, so 10,000 nested
// parentheses overflowed a pool worker's stack (SIGSEGV). Every recursive
// shape (parentheses, unary minus, casts, loop bodies) now stops at the
// frontend's nesting limit with one located error and a null module,
// while the 63 parenthesis levels C guarantees still parse.
TEST(HlsFrontend, DeepNestingIsATypedErrorOnAPoolThread) {
  auto repeat = [](const char *piece, int n) {
    std::string out;
    for (int i = 0; i < n; ++i)
      out += piece;
    return out;
  };
  ThreadPool pool(1);
  auto parseOnPool = [&](const std::string &source, DiagnosticEngine &diags) {
    bool parsed = false;
    pool.submit([&] {
      lir::LContext ctx;
      parsed = hlscpp::parseHlsCpp(source, ctx, diags) != nullptr;
    });
    pool.wait();
    return parsed;
  };

  DiagnosticEngine cDepth;
  EXPECT_TRUE(parseOnPool("void k(int A[1]) { A[0] = " + repeat("(", 63) +
                              "1" + repeat(")", 63) + "; }",
                          cDepth))
      << cDepth.str();

  constexpr int kDepth = 10000;
  const std::vector<std::string> sources = {
      "void k(int A[1]) { A[0] = " + repeat("(", kDepth) + "1" +
          repeat(")", kDepth) + "; }",
      "void k(int A[1]) { A[0] = " + repeat("- ", kDepth) + "1; }",
      "void k(int A[1]) { A[0] = " + repeat("(int)", kDepth) + "1; }",
      "void k(int A[1]) { " +
          repeat("for (int i = 0; i < 2; i += 1) { ", kDepth) + "A[0] = 1;" +
          repeat(" }", kDepth) + " }"};
  for (const std::string &source : sources) {
    DiagnosticEngine diags;
    EXPECT_FALSE(parseOnPool(source, diags)) << source.substr(0, 40);
    ASSERT_EQ(diags.errorCount(), 1u) << diags.str();
    const Diagnostic &error = diags.diagnostics().front();
    EXPECT_NE(error.message.find("nesting deeper than 256 levels"),
              std::string::npos)
        << error.message;
    EXPECT_EQ(error.loc.line, 1);
    EXPECT_GT(error.loc.col, 20);
  }
}

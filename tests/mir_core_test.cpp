// Tests for the MiniMLIR core: context uniquing, affine expressions, op
// construction, printing/parsing and verification.
#include "mir/Builder.h"
#include "mir/MContext.h"
#include "mir/Parser.h"
#include "mir/Printer.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::mir;

TEST(MirTypes, Uniquing) {
  MContext ctx;
  EXPECT_EQ(ctx.indexTy(), ctx.indexTy());
  EXPECT_EQ(ctx.intTy(32), ctx.i32());
  EXPECT_EQ(ctx.memrefTy({4, 4}, ctx.f64()), ctx.memrefTy({4, 4}, ctx.f64()));
  EXPECT_NE(ctx.memrefTy({4, 4}, ctx.f64()), ctx.memrefTy({4, 8}, ctx.f64()));
  EXPECT_NE(ctx.memrefTy({4}, ctx.f64()), ctx.memrefTy({4}, ctx.f32()));
}

TEST(MirTypes, MemRefGeometry) {
  MContext ctx;
  MemRefType *mt = ctx.memrefTy({2, 3, 4}, ctx.f64());
  EXPECT_EQ(mt->rank(), 3u);
  EXPECT_EQ(mt->numElements(), 24);
  EXPECT_EQ(mt->strides(), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(mt->str(), "memref<2x3x4xf64>");
}

TEST(MirAttrs, Uniquing) {
  MContext ctx;
  EXPECT_EQ(ctx.intAttr(5), ctx.intAttr(5));
  EXPECT_NE(ctx.intAttr(5), ctx.intAttr(6));
  EXPECT_EQ(ctx.stringAttr("x"), ctx.stringAttr("x"));
  EXPECT_EQ(ctx.unitAttr(), ctx.unitAttr());
  EXPECT_EQ(ctx.arrayAttr({ctx.intAttr(1)}), ctx.arrayAttr({ctx.intAttr(1)}));
}

TEST(AffineExpr, FoldingOnConstruction) {
  MContext ctx;
  const AffineExpr *two = ctx.affineConst(2);
  const AffineExpr *three = ctx.affineConst(3);
  EXPECT_EQ(ctx.affineAdd(two, three), ctx.affineConst(5));
  EXPECT_EQ(ctx.affineMul(two, three), ctx.affineConst(6));
  const AffineExpr *d0 = ctx.affineDim(0);
  EXPECT_EQ(ctx.affineAdd(d0, ctx.affineConst(0)), d0);
  EXPECT_EQ(ctx.affineMul(d0, ctx.affineConst(1)), d0);
  EXPECT_EQ(ctx.affineMul(d0, ctx.affineConst(0)), ctx.affineConst(0));
  // Structural uniquing of compound expressions.
  EXPECT_EQ(ctx.affineAdd(d0, two), ctx.affineAdd(d0, two));
}

TEST(AffineExpr, Evaluation) {
  MContext ctx;
  // d0*32 + d1
  const AffineExpr *expr = ctx.affineAdd(
      ctx.affineMul(ctx.affineDim(0), ctx.affineConst(32)), ctx.affineDim(1));
  EXPECT_EQ(expr->evaluate({2, 5}), 69);
  // floordiv/mod semantics are euclidean for negatives.
  const AffineExpr *mod = ctx.affineMod(ctx.affineDim(0), ctx.affineConst(4));
  EXPECT_EQ(mod->evaluate({-1}), 3);
  const AffineExpr *fd =
      ctx.affineFloorDiv(ctx.affineDim(0), ctx.affineConst(4));
  EXPECT_EQ(fd->evaluate({-1}), -1);
  EXPECT_EQ(fd->evaluate({7}), 1);
  const AffineExpr *cd =
      ctx.affineCeilDiv(ctx.affineDim(0), ctx.affineConst(4));
  EXPECT_EQ(cd->evaluate({7}), 2);
}

TEST(AffineMap, IdentityAndEvaluate) {
  MContext ctx;
  AffineMap id = AffineMap::identity(ctx, 2);
  EXPECT_EQ(id.numDims(), 2u);
  EXPECT_EQ(id.numResults(), 2u);
  EXPECT_EQ(id.evaluate({7, 9}), (std::vector<int64_t>{7, 9}));
  EXPECT_EQ(id.str(), "(d0, d1) -> (d0, d1)");
}

static Value *loadAtHelper(OpBuilder &b, Value *mem, Value *iv) {
  return b.affineLoad(mem, AffineMap::identity(b.context(), 1), {iv});
}

TEST(MirOps, BuildFunctionAndLoop) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc(
      "k", ctx.fnTy({ctx.memrefTy({8}, ctx.f64())}, {}));
  builder.setInsertPoint(fn.entryBlock());
  ForOp loop = builder.affineFor(0, 8, 2);
  builder.setInsertPointToLoopBody(loop);
  Value *v = loadAtHelper(builder, fn.arg(0), loop.inductionVar());
  builder.affineStore(v, fn.arg(0), AffineMap::identity(ctx, 1),
                      {loop.inductionVar()});
  builder.setInsertPoint(fn.entryBlock());
  builder.createReturn();

  EXPECT_EQ(loop.lowerBound(), 0);
  EXPECT_EQ(loop.upperBound(), 8);
  EXPECT_EQ(loop.step(), 2);
  EXPECT_EQ(loop.tripCount(), 4);
  EXPECT_FALSE(loop.pipelineII().has_value());

  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(module.get(), diags)) << diags.str();
  EXPECT_EQ(module.get().lookupFunc("k").op, fn.op);
  EXPECT_FALSE(module.get().lookupFunc("nope"));
}

TEST(MirOps, UseDefAndRAUW) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc("k", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  Value *a = builder.constantIndex(1);
  Value *b = builder.constantIndex(2);
  Value *sum = builder.binary(ops::AddI, a, b);
  builder.createReturn();

  EXPECT_EQ(a->uses().size(), 1u);
  Value *c = builder.constantIndex(3);
  a->replaceAllUsesWith(c);
  EXPECT_TRUE(a->uses().empty());
  EXPECT_EQ(sum->definingOp()->operand(0), c);
}

TEST(MirOps, CloneWithRegions) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc("k", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  ForOp loop = builder.affineFor(0, 4);
  builder.setInsertPointToLoopBody(loop);
  Value *doubled = builder.binary(ops::AddI, loop.inductionVar(),
                                  loop.inductionVar());
  (void)doubled;
  builder.setInsertPoint(fn.entryBlock());
  builder.createReturn();

  std::map<Value *, Value *> remap;
  auto clone = loop.op->clone(remap);
  ForOp clonedLoop = ForOp::wrap(clone.get());
  EXPECT_EQ(clonedLoop.tripCount(), 4);
  // Cloned body uses the cloned induction variable.
  Operation *clonedAdd = clonedLoop.bodyBlock()->front();
  EXPECT_EQ(clonedAdd->operand(0), clonedLoop.inductionVar());
  EXPECT_NE(clonedLoop.inductionVar(), loop.inductionVar());
}

TEST(MirVerifier, CatchesBadIndexCount) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn =
      builder.createFunc("k", ctx.fnTy({ctx.memrefTy({4, 4}, ctx.f64())}, {}));
  builder.setInsertPoint(fn.entryBlock());
  Value *idx = builder.constantIndex(0);
  // memref.load with one index on a 2-D memref: build generically to dodge
  // the builder's assert.
  builder.createOp(ops::MemRefLoad, {fn.arg(0), idx}, {ctx.f64()});
  builder.createReturn();
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module.get(), diags));
  EXPECT_NE(diags.str().find("rank"), std::string::npos);
}

TEST(MirVerifier, CatchesUseBeforeDef) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc("k", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  Value *a = builder.constantIndex(1);
  Value *b = builder.constantIndex(2);
  Operation *sum = builder.createOp(ops::AddI, {a, b}, {ctx.indexTy()});
  builder.createReturn();
  // Move the constant AFTER its use.
  Operation *aOp = a->definingOp();
  fn.entryBlock()->insert(fn.entryBlock()->positionOf(sum)++,
                          aOp->removeFromParent());
  // Rebuild order: a now after sum? (insert before sum's next position.)
  // Simply verify the verifier notices when order is wrong.
  DiagnosticEngine diags;
  bool ok = verifyModule(module.get(), diags);
  // Depending on exact insertion the order may still be fine; enforce the
  // broken order explicitly if needed.
  if (ok) {
    auto owned = aOp->removeFromParent();
    fn.entryBlock()->append(std::move(owned)); // after return, clearly bad
    DiagnosticEngine diags2;
    EXPECT_FALSE(verifyModule(module.get(), diags2));
  } else {
    SUCCEED();
  }
}

TEST(MirPrintParse, RoundTrip) {
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc(
      "k", ctx.fnTy({ctx.memrefTy({4, 4}, ctx.f64())}, {}));
  builder.setInsertPoint(fn.entryBlock());
  ForOp loop = builder.affineFor(0, 4);
  setPipelineDirective(loop, 1);
  builder.setInsertPointToLoopBody(loop);
  Value *iv = loop.inductionVar();
  Value *v = builder.affineLoad(fn.arg(0), AffineMap::identity(ctx, 2),
                                {iv, iv});
  Value *doubled = builder.binary(ops::MulF, v, v);
  builder.affineStore(doubled, fn.arg(0), AffineMap::identity(ctx, 2),
                      {iv, iv});
  builder.setInsertPoint(fn.entryBlock());
  builder.createReturn();

  std::string printed = printModule(module.get());
  MContext ctx2;
  DiagnosticEngine diags;
  auto reparsed = parseModule(printed, ctx2, diags);
  ASSERT_TRUE(reparsed.has_value()) << diags.str() << "\n" << printed;
  EXPECT_EQ(printModule(reparsed->get()), printed);

  DiagnosticEngine verifyDiags;
  EXPECT_TRUE(verifyModule(reparsed->get(), verifyDiags))
      << verifyDiags.str();
}

TEST(MirPrintParse, SignedExponentFloatRoundTrip) {
  // The shortest-round-trip printer emits forms like 1e-05; the lexer's
  // shape guard (32x32) must still accept a signed exponent. Regression:
  // reparsing cached MLIR stage text failed on exactly this.
  MContext ctx;
  OpBuilder builder(ctx);
  OwnedModule module = OpBuilder::createModule();
  builder.setInsertPoint(module.get().body());
  FuncOp fn = builder.createFunc("eps", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  builder.constantFloat(1e-5, ctx.f64());
  builder.constantFloat(-2.5e+17, ctx.f64());
  builder.createReturn();

  std::string printed = printModule(module.get());
  EXPECT_NE(printed.find("1e-05"), std::string::npos) << printed;
  MContext ctx2;
  DiagnosticEngine diags;
  auto reparsed = parseModule(printed, ctx2, diags);
  ASSERT_TRUE(reparsed.has_value()) << diags.str() << "\n" << printed;
  EXPECT_EQ(printModule(reparsed->get()), printed);
}

TEST(MirParseErrors, UnknownValue) {
  MContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(builtin.module {
  func.func @k(%arg0: memref<4xf64>) {
    "func.return"(%ghost) : (index) -> ()
  }
})",
                            ctx, diags);
  EXPECT_FALSE(module.has_value());
  EXPECT_NE(diags.str().find("unknown value"), std::string::npos);
}

TEST(MirParseErrors, BadType) {
  MContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(builtin.module {
  func.func @k(%arg0: quux<4xf64>) {
    "func.return"() : () -> ()
  }
})",
                            ctx, diags);
  EXPECT_FALSE(module.has_value());
}

TEST(MirParseErrors, MissingModule) {
  MContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule("func.func @k() {}", ctx, diags);
  EXPECT_FALSE(module.has_value());
}

TEST(MirParse, AffineMapAttrRoundTrip) {
  MContext ctx;
  DiagnosticEngine diags;
  const char *text = R"(builtin.module {
  func.func @k(%arg0: memref<4x8xf64>) {
    %0 = "arith.constant"() {value = 1} : () -> (index)
    %1 = "affine.apply"(%0) {map = affine_map<(d0) -> ((d0 * 8) + 3)>} : (index) -> (index)
    "func.return"() : () -> ()
  }
})";
  auto module = parseModule(text, ctx, diags);
  ASSERT_TRUE(module.has_value()) << diags.str();
  // Find the apply op and evaluate its map.
  const AffineMap *map = nullptr;
  module->get().op->walk([&](Operation *op) {
    if (op->is(ops::AffineApply))
      map = &cast<AffineMapAttr>(op->attr("map"))->value();
  });
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->evaluate({5})[0], 43);
}

TEST(MirParse, ModFloorDivExpressions) {
  MContext ctx;
  DiagnosticEngine diags;
  const char *text = R"(builtin.module {
  func.func @k() {
    %0 = "arith.constant"() {value = 13} : () -> (index)
    %1 = "affine.apply"(%0) {map = affine_map<(d0) -> ((d0 mod 4) + (d0 floordiv 4))>} : (index) -> (index)
    "func.return"() : () -> ()
  }
})";
  auto module = parseModule(text, ctx, diags);
  ASSERT_TRUE(module.has_value()) << diags.str();
  const AffineMap *map = nullptr;
  module->get().op->walk([&](Operation *op) {
    if (op->is(ops::AffineApply))
      map = &cast<AffineMapAttr>(op->attr("map"))->value();
  });
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->evaluate({13})[0], 13 % 4 + 13 / 4);
}

// Regression: the lexer used to hand float words to std::stod, which
// throws on out-of-range values instead of diagnosing them.
TEST(MirParseErrors, HugeFloatLiteralRejected) {
  MContext ctx;
  DiagnosticEngine diags;
  auto module = parseModule(R"(builtin.module {
  func.func @k() {
    %0 = "arith.constant"() {value = 1.0e999} : () -> (f64)
    "func.return"() : () -> ()
  }
})",
                            ctx, diags);
  EXPECT_FALSE(module.has_value());
  EXPECT_NE(diags.str().find("float literal"), std::string::npos);
}

// Regression: affine positions, integer widths and memref dimensions went
// through std::stoul/std::stoll, which threw std::invalid_argument or
// std::out_of_range out of parseModule on malformed text; a missing
// operand after '+' dereferenced a null expression.
TEST(MirParseErrors, MalformedNumbersAreLocatedErrors) {
  auto module = [](const std::string &argType, const std::string &map) {
    return "builtin.module {\n  func.func @k(%arg0: " + argType +
           ") {\n    %0 = \"arith.constant\"() {value = 1} : () -> "
           "(index)\n    %1 = \"affine.apply\"(%0) {map = " +
           map +
           "} : (index) -> (index)\n    \"func.return\"() : () -> ()\n  "
           "}\n}";
  };
  const std::string okType = "memref<4xf64>";
  const std::string okMap = "affine_map<(d0) -> (d0)>";
  struct Case {
    std::string text;
    const char *message;
    int line;
  };
  const Case cases[] = {
      {module(okType, "affine_map<(d0) -> (dx)>"),
       "bad affine dimension 'dx'", 4},
      {module(okType, "affine_map<(d0) -> (d99999999999999999999)>"),
       "bad affine dimension", 4},
      {module(okType, "affine_map<(d0) -> (d1)>"),
       "bad affine dimension 'd1' (map has 1 dimensions)", 4},
      {module(okType, "affine_map<(d0)[s0] -> (d0 + s1)>"),
       "bad affine symbol 's1'", 4},
      {module(okType, "affine_map<(d0) -> (d0 + )>"), "bad affine expression",
       4},
      {module("i99999999999999999999", okMap), "bad integer type", 2},
      {module("memref<4x99999999999999999999xf64>", okMap),
       "memref dimension '99999999999999999999' out of range", 2},
      {module("memref<4xi99999999999999999999>", okMap), "bad integer type",
       2},
      {module("memref<4xifoo>", okMap), "bad integer type 'ifoo'", 2},
  };
  for (const Case &c : cases) {
    MContext ctx;
    DiagnosticEngine diags;
    EXPECT_FALSE(parseModule(c.text, ctx, diags).has_value()) << c.text;
    ASSERT_TRUE(diags.hadError()) << c.text;
    const Diagnostic &first = diags.diagnostics().front();
    EXPECT_NE(first.message.find(c.message), std::string::npos)
        << c.message << "\n" << diags.str();
    EXPECT_EQ(first.loc.line, c.line) << diags.str();
  }
}

// Deep nesting used to recurse until the stack overflowed: on a pool
// thread (the stack serve compiles on) a 100,000-deep parenthesized
// affine expression segfaulted parseModule. Past kMaxNestingDepth the
// parse stops with one located error.
TEST(MirParseErrors, DeepNestingIsATypedErrorOnAPoolThread) {
  auto repeat = [](const char *piece, int n) {
    std::string out;
    for (int i = 0; i < n; ++i)
      out += piece;
    return out;
  };
  auto module = [](const std::string &attr, const std::string &body) {
    return "builtin.module {\n  func.func @k() {\n    %0 = "
           "\"arith.constant\"() {value = " +
           attr + "} : () -> (index)\n" + body +
           "    \"func.return\"() : () -> ()\n  }\n}";
  };
  auto parens = [&](int depth) {
    return module("1", "    %1 = \"affine.apply\"(%0) {map = "
                       "affine_map<(d0) -> (" +
                           repeat("(", depth) + "d0" + repeat(")", depth) +
                           ")>} : (index) -> (index)\n");
  };
  auto arrays = [&](int depth) {
    return module(repeat("[", depth) + "1" + repeat("]", depth), "");
  };
  auto regions = [&](int depth) {
    return module("1", "    " + repeat("\"t.r\"() ({ ", depth) +
                           "\"t.y\"() : () -> ()" +
                           repeat(" }) : () -> ()", depth) + "\n");
  };
  ThreadPool pool(1);
  auto parseOnPool = [&](const std::string &text, DiagnosticEngine &diags) {
    bool parsed = false;
    pool.submit([&] {
      MContext ctx;
      parsed = parseModule(text, ctx, diags).has_value();
    });
    pool.wait();
    return parsed;
  };

  for (const std::string &text : {parens(100), arrays(100), regions(100)}) {
    DiagnosticEngine diags;
    EXPECT_TRUE(parseOnPool(text, diags)) << diags.str();
  }
  constexpr int kDepth = 100000;
  for (const std::string &text :
       {parens(kDepth), arrays(kDepth), regions(kDepth)}) {
    DiagnosticEngine diags;
    EXPECT_FALSE(parseOnPool(text, diags)) << text.substr(0, 120);
    ASSERT_EQ(diags.errorCount(), 1u) << diags.str();
    const Diagnostic &error = diags.diagnostics().front();
    EXPECT_NE(error.message.find("nesting deeper than 256 levels"),
              std::string::npos)
        << error.message;
    EXPECT_GT(error.loc.line, 0);
    EXPECT_GT(error.loc.col, 256);
  }
}

// Tests for the MiniLLVM scalar transforms and the loop-unroll utility.
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "lir/Verifier.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/LoopUnroll.h"
#include "lir/transforms/Transforms.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::lir;

namespace {

struct Parsed {
  LContext ctx;
  std::unique_ptr<Module> module;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
  }

  Function *fn() { return module->functions().front(); }

  PassStats runPass(std::unique_ptr<ModulePass> pass) {
    PassManager pm(/*verifyEach=*/true);
    pm.add(std::move(pass));
    DiagnosticEngine diags;
    EXPECT_TRUE(pm.run(*module, diags)) << diags.str();
    return pm.totalStats();
  }

  std::string print() { return printModule(*module); }
};

} // namespace

TEST(Mem2Reg, PromotesScalarAlloca) {
  Parsed p(R"(
define void @f(i64 %x) {
entry:
  %slot = alloca i64
  store i64 %x, i64* %slot
  %v = load i64, i64* %slot
  %r = add i64 %v, 1
  ret void
}
)");
  PassStats stats = p.runPass(createMem2RegPass());
  EXPECT_EQ(stats["mem2reg.promoted"], 1);
  std::string out = p.print();
  EXPECT_EQ(out.find("alloca"), std::string::npos);
  EXPECT_EQ(out.find("load"), std::string::npos);
  EXPECT_NE(out.find("add i64 %x, 1"), std::string::npos);
}

TEST(Mem2Reg, InsertsPhiAtJoin) {
  Parsed p(R"(
define void @f(i1 %c) {
entry:
  %slot = alloca i64
  store i64 1, i64* %slot
  br i1 %c, label %then, label %join
then:
  store i64 2, i64* %slot
  br label %join
join:
  %v = load i64, i64* %slot
  %r = add i64 %v, 1
  ret void
}
)");
  p.runPass(createMem2RegPass());
  std::string out = p.print();
  EXPECT_NE(out.find("phi i64"), std::string::npos);
  EXPECT_EQ(out.find("alloca"), std::string::npos);
}

TEST(Mem2Reg, PromotesLoopCounter) {
  // The HLS C++ frontend shape: iv as alloca in a loop.
  Parsed p(R"(
define void @f() {
entry:
  %iv.addr = alloca i64
  store i64 0, i64* %iv.addr
  br label %header
header:
  %iv = load i64, i64* %iv.addr
  %cmp = icmp slt i64 %iv, 8
  br i1 %cmp, label %body, label %exit
body:
  %iv2 = load i64, i64* %iv.addr
  %next = add i64 %iv2, 1
  store i64 %next, i64* %iv.addr
  br label %header
exit:
  ret void
}
)");
  p.runPass(createMem2RegPass());
  std::string out = p.print();
  EXPECT_EQ(out.find("alloca"), std::string::npos);
  EXPECT_NE(out.find("phi i64"), std::string::npos);
}

TEST(Mem2Reg, SkipsEscapedAlloca) {
  Parsed p(R"(
declare void @sink(i64*)

define void @f() {
entry:
  %slot = alloca i64
  call void @sink(i64* %slot)
  ret void
}
)");
  PassStats stats = p.runPass(createMem2RegPass());
  EXPECT_EQ(stats["mem2reg.promoted"], 0);
  EXPECT_NE(p.print().find("alloca"), std::string::npos);
}

// The renaming walk never visits an unreachable block: its load of a
// promoted alloca reads undef and its store goes, so the alloca can be
// erased (a load left behind used to keep a use of the erased alloca).
TEST(Mem2Reg, UnreachableLoadReadsUndef) {
  Parsed p(R"(
define i32 @f(i32 %a) {
entry:
  %x = alloca i32
  store i32 %a, i32* %x
  br label %exit
dead:
  %v = load i32, i32* %x
  store i32 %v, i32* %x
  br label %exit
exit:
  %r = load i32, i32* %x
  ret i32 %r
}
)");
  PassStats stats = p.runPass(createMem2RegPass());
  EXPECT_EQ(stats["mem2reg.promoted"], 1);
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
  EXPECT_EQ(p.print(), R"(!flag opaque-pointers = "false"

define i32 @f(i32 %a) {
entry:
  br label %exit

dead:
  br label %exit

exit:
  ret i32 %a
}
)");
}

// A phi placed at a join with an unreachable predecessor takes undef from
// it, so the promoted function still verifies.
TEST(Mem2Reg, PhiTakesUndefFromUnreachablePredecessor) {
  Parsed p(R"(
define i32 @f(i1 %c) {
entry:
  %x = alloca i32
  br i1 %c, label %then, label %else
then:
  store i32 1, i32* %x
  br label %join
else:
  store i32 2, i32* %x
  br label %join
dead:
  store i32 3, i32* %x
  br label %join
join:
  %r = load i32, i32* %x
  ret i32 %r
}
)");
  p.runPass(createMem2RegPass());
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
  std::string out = p.print();
  EXPECT_NE(out.find("%x.phi = phi i32 [ 1, %then ], [ 2, %else ], "
                     "[ undef, %dead ]"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("store"), std::string::npos) << out;
}

// Two promoted allocas across a diamond, where %x stores loads of %y: the
// join's phis are ordered with the later alloca's first, each phi's
// incomings follow the renaming walk, and %x's phi, whose incomings are
// both %y's value on entry (%b) once %y's loads are renamed, is dropped as
// trivial.
TEST(Mem2Reg, DiamondPhiOrderAndTrivialPhiCleanup) {
  Parsed p(R"(
define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  %x = alloca i32
  %y = alloca i32
  %z = alloca i32
  store i32 %a, i32* %x
  store i32 %b, i32* %y
  br i1 %c, label %then, label %else
then:
  %t = load i32, i32* %y
  store i32 %t, i32* %x
  %u = add i32 %a, 1
  store i32 %u, i32* %y
  store i32 %a, i32* %z
  br label %join
else:
  %e = load i32, i32* %y
  store i32 %e, i32* %x
  store i32 %b, i32* %z
  br label %join
join:
  %rx = load i32, i32* %x
  %ry = load i32, i32* %y
  %rz = load i32, i32* %z
  %s = add i32 %rx, %ry
  %r = add i32 %s, %rz
  ret i32 %r
}
)");
  PassStats stats = p.runPass(createMem2RegPass());
  EXPECT_EQ(stats["mem2reg.promoted"], 3);
  EXPECT_EQ(p.print(), R"(!flag opaque-pointers = "false"

define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  br i1 %c, label %then, label %else

then:
  %u = add i32 %a, 1
  br label %join

else:
  br label %join

join:
  %z.phi = phi i32 [ %a, %then ], [ %b, %else ]
  %y.phi = phi i32 [ %u, %then ], [ %b, %else ]
  %s = add i32 %b, %y.phi
  %r = add i32 %s, %z.phi
  ret i32 %r
}
)");
}

TEST(SimplifyCFG, RemovesUnreachableBlocks) {
  Parsed p(R"(
define void @f() {
entry:
  ret void
dead:
  %x = add i64 1, 2
  br label %dead2
dead2:
  br label %dead
}
)");
  PassStats stats = p.runPass(createSimplifyCFGPass());
  EXPECT_EQ(stats["simplifycfg.unreachable-removed"], 2);
  EXPECT_EQ(p.fn()->numBlocks(), 1u);
}

TEST(SimplifyCFG, FoldsConstantBranch) {
  Parsed p(R"(
define void @f() {
entry:
  br i1 1, label %taken, label %nottaken
taken:
  ret void
nottaken:
  ret void
}
)");
  PassStats stats = p.runPass(createSimplifyCFGPass());
  EXPECT_GE(stats["simplifycfg.condbr-folded"], 1);
  EXPECT_EQ(p.fn()->numBlocks(), 1u);
}

TEST(SimplifyCFG, MergesChainsAndKeepsMetadata) {
  Parsed p(R"(
define void @f() {
entry:
  br label %next, !xlx.pipeline !{i64 1}
next:
  %x = add i64 1, 2
  ret void
}
)");
  p.runPass(createSimplifyCFGPass());
  EXPECT_EQ(p.fn()->numBlocks(), 1u);
  // The directive must survive on the new terminator.
  EXPECT_NE(p.print().find("xlx.pipeline"), std::string::npos);
}

TEST(DCE, RemovesDeadChain) {
  Parsed p(R"(
define void @f(i64 %x) {
entry:
  %a = add i64 %x, 1
  %b = mul i64 %a, 2
  %c = add i64 %b, 3
  ret void
}
)");
  PassStats stats = p.runPass(createDCEPass());
  EXPECT_EQ(stats["dce.removed"], 3);
  EXPECT_EQ(p.fn()->entry()->size(), 1u); // just the ret
}

TEST(DCE, KeepsSideEffects) {
  Parsed p(R"(
define void @f(i64* %p) {
entry:
  store i64 1, i64* %p
  %v = load i64, i64* %p
  ret void
}
)");
  PassStats stats = p.runPass(createDCEPass());
  EXPECT_EQ(stats["dce.removed"], 1); // only the unused load
  EXPECT_NE(p.print().find("store"), std::string::npos);
}

TEST(InstCombine, ConstantFolding) {
  Parsed p(R"(
define void @f(i64* %p) {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = icmp slt i64 %b, 100
  %d = select i1 %c, i64 %b, i64 0
  store i64 %d, i64* %p
  ret void
}
)");
  p.runPass(createInstCombinePass());
  p.runPass(createDCEPass());
  EXPECT_NE(p.print().find("store i64 20"), std::string::npos) << p.print();
}

TEST(InstCombine, Identities) {
  Parsed p(R"(
define void @f(i64 %x, i64* %p) {
entry:
  %a = add i64 %x, 0
  %b = mul i64 %a, 1
  %c = sub i64 %b, 0
  store i64 %c, i64* %p
  ret void
}
)");
  p.runPass(createInstCombinePass());
  p.runPass(createDCEPass());
  EXPECT_NE(p.print().find("store i64 %x"), std::string::npos) << p.print();
}

TEST(InstCombine, MulByZero) {
  Parsed p(R"(
define void @f(i64 %x, i64* %p) {
entry:
  %a = mul i64 %x, 0
  store i64 %a, i64* %p
  ret void
}
)");
  p.runPass(createInstCombinePass());
  EXPECT_NE(p.print().find("store i64 0"), std::string::npos);
}

TEST(InstCombine, NoFPFastMath) {
  // x + 0.0 must NOT fold (signed-zero semantics).
  Parsed p(R"(
define void @f(double %x, double* %p) {
entry:
  %a = fadd double %x, 0.0
  store double %a, double* %p
  ret void
}
)");
  p.runPass(createInstCombinePass());
  EXPECT_NE(p.print().find("fadd"), std::string::npos);
}

TEST(CSE, EliminatesRedundantExpressions) {
  Parsed p(R"(
define void @f(i64 %x, i64* %p) {
entry:
  %a = add i64 %x, 5
  %b = add i64 %x, 5
  %sum = add i64 %a, %b
  store i64 %sum, i64* %p
  ret void
}
)");
  PassStats stats = p.runPass(createCSEPass());
  EXPECT_EQ(stats["cse.eliminated"], 1);
}

TEST(CSE, CommutativeOperandsUnify) {
  Parsed p(R"(
define void @f(i64 %x, i64 %y, i64* %p) {
entry:
  %a = add i64 %x, %y
  %b = add i64 %y, %x
  %sum = add i64 %a, %b
  store i64 %sum, i64* %p
  ret void
}
)");
  PassStats stats = p.runPass(createCSEPass());
  EXPECT_EQ(stats["cse.eliminated"], 1);
}

TEST(CSE, DoesNotCrossDominanceScopes) {
  Parsed p(R"(
define void @f(i1 %c, i64 %x, i64* %p) {
entry:
  br i1 %c, label %a, label %b
a:
  %e1 = add i64 %x, 7
  store i64 %e1, i64* %p
  ret void
b:
  %e2 = add i64 %x, 7
  store i64 %e2, i64* %p
  ret void
}
)");
  PassStats stats = p.runPass(createCSEPass());
  // Sibling blocks do not dominate each other: nothing to eliminate.
  EXPECT_EQ(stats["cse.eliminated"], 0);
}

TEST(CSE, DoesNotTouchLoads) {
  Parsed p(R"(
define void @f(i64* %p) {
entry:
  %a = load i64, i64* %p
  store i64 0, i64* %p
  %b = load i64, i64* %p
  %sum = add i64 %a, %b
  store i64 %sum, i64* %p
  ret void
}
)");
  PassStats stats = p.runPass(createCSEPass());
  EXPECT_EQ(stats["cse.eliminated"], 0);
}

namespace {

const std::string kUnrollableLoop = R"(
define void @f([32 x double]* %p) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %iv
  %v = load double, double* %addr
  %d = fadd double %v, 1.0
  store double %d, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)";

} // namespace

TEST(LoopUnroll, ClampFactor) {
  EXPECT_EQ(clampUnrollFactor(32, 4), 4);
  EXPECT_EQ(clampUnrollFactor(32, 5), 4); // largest divisor <= 5
  EXPECT_EQ(clampUnrollFactor(32, 100), 32);
  EXPECT_EQ(clampUnrollFactor(7, 3), 1);
  EXPECT_EQ(clampUnrollFactor(12, 6), 6);
  EXPECT_EQ(clampUnrollFactor(12, 5), 4);
  EXPECT_EQ(clampUnrollFactor(1, 8), 1);
}

TEST(LoopUnroll, ClampFactorEdgeCases) {
  // A requested factor <= 1 or a degenerate/unknown trip count never
  // unrolls.
  EXPECT_EQ(clampUnrollFactor(32, 1), 1);
  EXPECT_EQ(clampUnrollFactor(32, 0), 1);
  EXPECT_EQ(clampUnrollFactor(32, -8), 1);
  EXPECT_EQ(clampUnrollFactor(0, 8), 1);
  EXPECT_EQ(clampUnrollFactor(-16, 8), 1);
  // Requests at or beyond the trip count fully unroll.
  EXPECT_EQ(clampUnrollFactor(6, 6), 6);
  EXPECT_EQ(clampUnrollFactor(6, 100), 6);
  // A prime trip count only admits 1 and itself.
  EXPECT_EQ(clampUnrollFactor(13, 12), 1);
  EXPECT_EQ(clampUnrollFactor(13, 13), 13);
}

TEST(LoopUnroll, FactorOfOneOrLessIsNoOp) {
  Parsed p(kUnrollableLoop);
  DominatorTree domTree(*p.fn());
  LoopInfo loopInfo(*p.fn(), domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  // "Nothing to do" is success, and the loop is untouched.
  EXPECT_TRUE(unrollLoopByFactor(*canonical, 1));
  EXPECT_TRUE(unrollLoopByFactor(*canonical, 0));
  EXPECT_TRUE(unrollLoopByFactor(*canonical, -4));
  EXPECT_EQ(canonical->step, 1);
  EXPECT_EQ(*canonical->tripCount, 32);
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
}

TEST(LoopUnroll, RejectsFactorAboveTripCount) {
  Parsed p(kUnrollableLoop);
  DominatorTree domTree(*p.fn());
  LoopInfo loopInfo(*p.fn(), domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_FALSE(unrollLoopByFactor(*canonical, 64)); // trip is 32
  EXPECT_EQ(canonical->step, 1);
}

TEST(LoopUnroll, UnrollByFour) {
  Parsed p(kUnrollableLoop);
  DominatorTree domTree(*p.fn());
  LoopInfo loopInfo(*p.fn(), domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(unrollLoopByFactor(*canonical, 4));

  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
  // Step widened to 4, trip now 8.
  EXPECT_EQ(canonical->step, 4);
  EXPECT_EQ(*canonical->tripCount, 8);
  // Body now holds 4 loads.
  int loads = 0;
  for (auto &inst : *canonical->loop->latch())
    if (inst->opcode() == Opcode::Load)
      ++loads;
  EXPECT_EQ(loads, 4);
}

TEST(LoopUnroll, RejectsNonDividingFactor) {
  Parsed p(kUnrollableLoop);
  DominatorTree domTree(*p.fn());
  LoopInfo loopInfo(*p.fn(), domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_FALSE(unrollLoopByFactor(*canonical, 5));
}

TEST(LoopUnroll, FullUnrollKeepsStructure) {
  Parsed p(kUnrollableLoop);
  DominatorTree domTree(*p.fn());
  LoopInfo loopInfo(*p.fn(), domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(unrollLoopByFactor(*canonical, 32));
  EXPECT_EQ(*canonical->tripCount, 1);
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
}

TEST(LICM, HoistsInvariantArithmetic) {
  Parsed p(R"(
define void @f([32 x double]* %p, i64 %n) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %inv = mul i64 %n, 8
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %iv
  %v = load double, double* %addr
  store double %v, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  PassStats stats = p.runPass(createLICMPass());
  EXPECT_EQ(stats["licm.hoisted"], 1);
  // %inv moved to the preheader (entry).
  bool foundInEntry = false;
  for (auto &inst : *p.fn()->entry())
    if (inst->opcode() == Opcode::Mul)
      foundInEntry = true;
  EXPECT_TRUE(foundInEntry);
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*p.module, diags)) << diags.str();
}

TEST(LICM, LeavesVariantAndMemoryAlone) {
  Parsed p(R"(
define void @f([32 x double]* %p) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %scaled = mul i64 %iv, 8
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %iv
  %v = load double, double* %addr
  store double %v, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  PassStats stats = p.runPass(createLICMPass());
  EXPECT_EQ(stats["licm.hoisted"], 0);
}

TEST(LICM, NeverSpeculatesDivision) {
  Parsed p(R"(
define void @f([32 x double]* %p, i64 %n, i64 %d) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 0
  br i1 %cmp, label %body, label %exit
body:
  %q = sdiv i64 %n, %d
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %q
  %v = load double, double* %addr
  store double %v, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  PassStats stats = p.runPass(createLICMPass());
  EXPECT_EQ(stats["licm.hoisted"], 0);
}

TEST(LICM, HoistsOutOfNestTransitively) {
  Parsed p(R"(
define void @f([8 x double]* %p, i64 %n) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 8
  br i1 %ocmp, label %inner.pre, label %exit
inner.pre:
  br label %inner
inner:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner ]
  %inv = mul i64 %n, 3
  %addr = getelementptr [8 x double], [8 x double]* %p, i64 0, i64 %j
  %v = load double, double* %addr
  store double %v, double* %addr
  %j.next = add i64 %j, 1
  %icmp2 = icmp slt i64 %j.next, 8
  br i1 %icmp2, label %inner, label %outer.latch
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer
exit:
  ret void
}
)");
  PassStats stats = p.runPass(createLICMPass());
  EXPECT_GE(stats["licm.hoisted"], 1);
  // The invariant mul ends up all the way in the function entry.
  bool foundInEntry = false;
  for (auto &inst : *p.fn()->entry())
    if (inst->opcode() == Opcode::Mul)
      foundInEntry = true;
  EXPECT_TRUE(foundInEntry) << p.print();
}

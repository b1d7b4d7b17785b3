// MiniLLVM verifier tests: good IR passes, malformed IR is diagnosed.
#include "lir/IRBuilder.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/Verifier.h"

#include <gtest/gtest.h>

using namespace mha;
using namespace mha::lir;

namespace {

/// Expects `text` to parse but fail verification with `needle` in the
/// diagnostics.
void expectInvalid(const std::string &text, const std::string &needle) {
  LContext ctx;
  DiagnosticEngine parseDiags;
  auto module = parseModule(text, ctx, parseDiags);
  ASSERT_NE(module, nullptr) << parseDiags.str();
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(*module, diags));
  EXPECT_NE(diags.str().find(needle), std::string::npos) << diags.str();
}

void expectValid(const std::string &text) {
  LContext ctx;
  DiagnosticEngine parseDiags;
  auto module = parseModule(text, ctx, parseDiags);
  ASSERT_NE(module, nullptr) << parseDiags.str();
  DiagnosticEngine diags;
  EXPECT_TRUE(verifyModule(*module, diags)) << diags.str();
}

} // namespace

TEST(LirVerifier, AcceptsWellFormedLoop) {
  expectValid(R"(
define void @f(ptr %p) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 8
  br i1 %cmp, label %body, label %exit
body:
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
}

TEST(LirVerifier, MissingTerminator) {
  LContext ctx;
  Module module(ctx, "m");
  Function *fn = module.createFunction(ctx.fnTy(ctx.voidTy(), {}), "f");
  fn->createBlock("entry"); // empty block, no terminator
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("no terminator"), std::string::npos);
}

TEST(LirVerifier, PhiMissingPredecessor) {
  expectInvalid(R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %phi = phi i64 [ 1, %a ]
  ret void
}
)",
                "missing an entry for predecessor");
}

TEST(LirVerifier, PhiFromNonPredecessor) {
  expectInvalid(R"(
define void @f() {
entry:
  br label %next
other:
  br label %next
next:
  %phi = phi i64 [ 1, %entry ], [ 2, %other ], [ 3, %next ]
  ret void
}
)",
                "not a predecessor");
}

TEST(LirVerifier, BinopTypeMismatch) {
  // Built via API (parser would coerce constants).
  LContext ctx;
  Module module(ctx, "m");
  Function *fn = module.createFunction(
      ctx.fnTy(ctx.voidTy(), {ctx.i64(), ctx.i32()}), "f");
  BasicBlock *bb = fn->createBlock("entry");
  // Hand-assemble a bad add (bypassing the builder's assert).
  auto bad = std::make_unique<Instruction>(Opcode::Add, ctx.i64());
  bad->addOperand(fn->arg(0));
  bad->addOperand(fn->arg(1));
  bb->append(std::move(bad));
  IRBuilder builder(ctx);
  builder.setInsertPoint(bb);
  builder.createRet();
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("type mismatch"), std::string::npos);
}

TEST(LirVerifier, UseBeforeDef) {
  expectInvalid(R"(
define void @f() {
entry:
  %0 = add i64 %1, 1
  %1 = add i64 2, 3
  ret void
}
)",
                "does not dominate");
}

TEST(LirVerifier, UseNotDominatingAcrossBlocks) {
  expectInvalid(R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %x = add i64 1, 2
  br label %join
b:
  br label %join
join:
  %y = add i64 %x, 1
  ret void
}
)",
                "does not dominate");
}

TEST(LirVerifier, NonPhiUsingItsOwnResult) {
  expectInvalid(R"(
define void @f(i32 %a) {
entry:
  %x = add i32 %x, %a
  ret void
}
)",
                "operand %x does not dominate use");
}

TEST(LirVerifier, NonPhiUsingItsOwnResultInSelfLoop) {
  // The back edge makes %x live around the loop, but only a phi may carry
  // a value from one iteration to the next.
  expectInvalid(R"(
define void @f(i32 %a, i1 %c) {
entry:
  br label %loop
loop:
  %x = add i32 %x, %a
  br i1 %c, label %loop, label %exit
exit:
  ret void
}
)",
                "operand %x does not dominate use");
}

TEST(LirVerifier, AcceptsPhiUsingItsOwnResult) {
  expectValid(R"(
define void @f(i1 %c) {
entry:
  br label %loop
loop:
  %p = phi i64 [ 0, %entry ], [ %p, %loop ]
  br i1 %c, label %loop, label %exit
exit:
  ret void
}
)");
}

TEST(LirVerifier, TypedPointerPointeeMismatch) {
  expectInvalid(R"(
define void @f(double* %p) {
entry:
  %0 = load i64, double* %p
  ret void
}
)",
                "pointee does not match");
}

TEST(LirVerifier, CallArgumentMismatch) {
  expectInvalid(R"(
declare double @hls_sqrt(double)

define void @f(i64 %x) {
entry:
  %0 = call double @hls_sqrt(i64 %x)
  ret void
}
)",
                "argument 0 type mismatch");
}

TEST(LirVerifier, RetTypeMismatch) {
  LContext ctx;
  Module module(ctx, "m");
  Function *fn = module.createFunction(ctx.fnTy(ctx.voidTy(), {}), "f");
  BasicBlock *bb = fn->createBlock("entry");
  IRBuilder builder(ctx);
  builder.setInsertPoint(bb);
  builder.createRet(ctx.constI64(1)); // void fn returning a value
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("ret"), std::string::npos);
}

TEST(LirVerifier, CondBrNonBoolCondition) {
  LContext ctx;
  Module module(ctx, "m");
  Function *fn =
      module.createFunction(ctx.fnTy(ctx.voidTy(), {ctx.i64()}), "f");
  BasicBlock *entry = fn->createBlock("entry");
  BasicBlock *a = fn->createBlock("a");
  BasicBlock *b = fn->createBlock("b");
  auto bad = std::make_unique<Instruction>(Opcode::CondBr, ctx.voidTy());
  bad->addOperand(fn->arg(0)); // i64 condition
  bad->addOperand(a);
  bad->addOperand(b);
  entry->append(std::move(bad));
  IRBuilder builder(ctx);
  builder.setInsertPoint(a);
  builder.createRet();
  builder.setInsertPoint(b);
  builder.createRet();
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("not i1"), std::string::npos);
}

TEST(LirVerifier, TerminatorMidBlock) {
  LContext ctx;
  Module module(ctx, "m");
  Function *fn = module.createFunction(ctx.fnTy(ctx.voidTy(), {}), "f");
  BasicBlock *bb = fn->createBlock("entry");
  IRBuilder builder(ctx);
  builder.setInsertPoint(bb);
  builder.createRet();
  builder.createRet(); // second terminator
  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("middle of a block"), std::string::npos);
}

// --- Call-site checking (pinned: multi-function modules rely on it) -----

TEST(LirVerifier, CallArgumentCountMismatch) {
  expectInvalid(R"(
define i64 @callee(i64 %a, i64 %b) {
entry:
  %v = add i64 %a, %b
  ret i64 %v
}

define i64 @caller(i64 %x) {
entry:
  %r = call i64 @callee(i64 %x)
  ret i64 %r
}
)",
                "call argument count mismatch");
}

TEST(LirVerifier, CallArgumentTypeMismatch) {
  expectInvalid(R"(
define i64 @callee(i64 %a) {
entry:
  ret i64 %a
}

define i64 @caller(double %x) {
entry:
  %r = call i64 @callee(double %x)
  ret i64 %r
}
)",
                "call argument 0 type mismatch");
}

TEST(LirVerifier, CallResultTypeMismatch) {
  // Built via API: the parser types a call from the callee's signature, so a
  // result-type mismatch can only come from hand-assembled IR.
  LContext ctx;
  Module module(ctx, "m");
  Function *callee =
      module.createFunction(ctx.fnTy(ctx.i64(), {ctx.i64()}), "callee");
  BasicBlock *calleeBody = callee->createBlock("entry");
  IRBuilder builder(ctx);
  builder.setInsertPoint(calleeBody);
  builder.createRet(callee->arg(0));

  Function *caller =
      module.createFunction(ctx.fnTy(ctx.doubleTy(), {ctx.i64()}), "caller");
  BasicBlock *callerBody = caller->createBlock("entry");
  auto bad = std::make_unique<Instruction>(Opcode::Call, ctx.doubleTy());
  bad->addOperand(callee);
  bad->addOperand(caller->arg(0));
  Instruction *call = bad.get();
  callerBody->append(std::move(bad));
  builder.setInsertPoint(callerBody);
  builder.createRet(call);

  DiagnosticEngine diags;
  EXPECT_FALSE(verifyModule(module, diags));
  EXPECT_NE(diags.str().find("call result type mismatch"), std::string::npos)
      << diags.str();
}

TEST(LirVerifier, AcceptsWellFormedCallsAndRecursion) {
  expectValid(R"(
define i64 @fact(i64 %n) {
entry:
  %cmp = icmp sle i64 %n, 1
  br i1 %cmp, label %base, label %rec
base:
  ret i64 1
rec:
  %n1 = sub i64 %n, 1
  %r = call i64 @fact(i64 %n1)
  %v = mul i64 %n, %r
  ret i64 %v
}

define i64 @top(i64 %x) {
entry:
  %r = call i64 @fact(i64 %x)
  ret i64 %r
}
)");
}

// Tests for dominators (including a brute-force property check), loop
// info, canonical-loop matching and the loop dependence analysis.
#include "flow/Kernels.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/analysis/Dependence.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lowering/Lowering.h"
#include "mir/Pass.h"
#include "mir/transforms/MirTransforms.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace mha;
using namespace mha::lir;

namespace {

struct Parsed {
  LContext ctx;
  std::unique_ptr<Module> module;
  Function *fn = nullptr;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
    if (module)
      fn = module->functions().front();
  }

  BasicBlock *block(const std::string &name) {
    for (BasicBlock *bb : fn->blockPtrs())
      if (bb->name() == name)
        return bb;
    return nullptr;
  }
};

const std::string kDiamond = R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  ret void
}
)";

const std::string kLoop = R"(
define void @f(ptr %p) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr double, ptr %p, i64 %iv
  %v = load double, ptr %addr
  store double %v, ptr %addr
  %next = add i64 %iv, 2
  br label %header
exit:
  ret void
}
)";

} // namespace

TEST(Dominators, Diamond) {
  Parsed p(kDiamond);
  DominatorTree domTree(*p.fn);
  BasicBlock *entry = p.block("entry");
  BasicBlock *a = p.block("a");
  BasicBlock *b = p.block("b");
  BasicBlock *join = p.block("join");

  EXPECT_TRUE(domTree.dominates(entry, join));
  EXPECT_TRUE(domTree.dominates(entry, a));
  EXPECT_FALSE(domTree.dominates(a, join));
  EXPECT_FALSE(domTree.dominates(a, b));
  EXPECT_TRUE(domTree.dominates(a, a));
  EXPECT_EQ(domTree.idom(join), entry);
  EXPECT_EQ(domTree.idom(a), entry);
  EXPECT_EQ(domTree.idom(entry), nullptr);
}

TEST(Dominators, RPOStartsAtEntry) {
  Parsed p(kDiamond);
  DominatorTree domTree(*p.fn);
  ASSERT_FALSE(domTree.rpo().empty());
  EXPECT_EQ(domTree.rpo().front(), p.block("entry"));
  EXPECT_EQ(domTree.rpo().size(), 4u);
}

TEST(Dominators, UnreachableBlockHandled) {
  Parsed p(R"(
define void @f() {
entry:
  ret void
dead:
  br label %dead
}
)");
  DominatorTree domTree(*p.fn);
  EXPECT_FALSE(domTree.isReachable(p.block("dead")));
  EXPECT_TRUE(domTree.isReachable(p.block("entry")));
}

namespace {

/// Blocks reachable from `fn`'s entry when `removed` is deleted from the
/// CFG (nothing is reachable when the entry itself is removed).
std::set<const BasicBlock *> reachableWithout(Function &fn,
                                              const BasicBlock *removed) {
  std::set<const BasicBlock *> seen;
  std::vector<BasicBlock *> work;
  if (fn.entry() != removed) {
    seen.insert(fn.entry());
    work.push_back(fn.entry());
  }
  while (!work.empty()) {
    BasicBlock *bb = work.back();
    work.pop_back();
    for (BasicBlock *succ : bb->successors())
      if (succ != removed && seen.insert(succ).second)
        work.push_back(succ);
  }
  return seen;
}

/// Checks every DominatorTree query on `fn` against the definition:
/// `a` dominates `b` iff `b` is unreachable once `a` is removed, and
/// idom(b) is the strict dominator of `b` that all its other strict
/// dominators dominate.
void expectMatchesBruteForce(Function &fn, const std::string &what) {
  DominatorTree domTree(fn);
  std::vector<BasicBlock *> blocks = fn.blockPtrs();
  std::set<const BasicBlock *> reachable = reachableWithout(fn, nullptr);
  std::map<const BasicBlock *, std::set<const BasicBlock *>> reachableMinus;
  for (BasicBlock *a : blocks)
    reachableMinus[a] = reachableWithout(fn, a);
  auto bruteDominates = [&](const BasicBlock *a, const BasicBlock *b) {
    return reachableMinus[a].count(b) == 0;
  };

  ASSERT_EQ(domTree.rpo().size(), reachable.size()) << what;
  EXPECT_EQ(domTree.rpo().front(), fn.entry()) << what;
  for (BasicBlock *b : blocks) {
    EXPECT_EQ(domTree.isReachable(b), reachable.count(b) > 0)
        << what << ": %" << b->name();
    for (BasicBlock *a : blocks)
      EXPECT_EQ(domTree.dominates(a, b), bruteDominates(a, b))
          << what << ": dominates(%" << a->name() << ", %" << b->name()
          << ")";

    BasicBlock *expectedIdom = nullptr;
    if (reachable.count(b) && b != fn.entry()) {
      for (BasicBlock *d : blocks) {
        if (d == b || !bruteDominates(d, b))
          continue;
        bool dominatedByAllOthers = true;
        for (BasicBlock *other : blocks)
          if (other != b && other != d && bruteDominates(other, b) &&
              !bruteDominates(other, d))
            dominatedByAllOthers = false;
        if (dominatedByAllOthers)
          expectedIdom = d;
      }
      EXPECT_NE(expectedIdom, nullptr) << what << ": %" << b->name();
    }
    EXPECT_EQ(domTree.idom(b), expectedIdom) << what << ": %" << b->name();
  }
}

} // namespace

TEST(Dominators, MatchBruteForceOnHandWrittenCFGs) {
  const char *cfgs[] = {
      kDiamond.c_str(),
      kLoop.c_str(),
      // Unreachable blocks: one branching into the reachable CFG, and an
      // unreachable cycle.
      R"(
define void @f(i1 %c) {
entry:
  br label %x
x:
  br i1 %c, label %y, label %exit
y:
  br label %x
dead1:
  br label %y
dead2:
  br label %dead3
dead3:
  br i1 %c, label %dead2, label %exit
exit:
  ret void
}
)",
      // Irreducible loop: %a and %b are both entered from the entry.
      R"(
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br i1 %c, label %b, label %exit
b:
  br i1 %c, label %a, label %exit
exit:
  ret void
}
)",
      // Irreducible loop nested in a reducible one, with a side exit.
      R"(
define void @f(i1 %c) {
entry:
  br label %outer
outer:
  br i1 %c, label %p, label %q
p:
  br i1 %c, label %q, label %latch
q:
  br i1 %c, label %p, label %side
side:
  br label %latch
latch:
  br i1 %c, label %outer, label %exit
exit:
  ret void
}
)",
  };
  for (const char *cfg : cfgs) {
    Parsed p(cfg);
    ASSERT_NE(p.fn, nullptr);
    expectMatchesBruteForce(*p.fn, cfg);
  }
}

TEST(Dominators, MatchBruteForceOnLoweredKernels) {
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t unroll : {1, 4}) {
      flow::KernelConfig config;
      config.unrollFactor = unroll;
      mir::MContext mctx;
      DiagnosticEngine diags;
      mir::OwnedModule mlir = spec.build(mctx, config);
      mir::MPassManager pm;
      pm.add(mir::createCanonicalizePass());
      pm.add(mir::createAffineToScfPass());
      pm.add(mir::createCanonicalizePass());
      ASSERT_TRUE(pm.run(mlir.get(), diags)) << diags.str();
      LContext ctx;
      std::unique_ptr<Module> module =
          lowering::lowerToLIR(mlir.get(), ctx, {}, diags);
      ASSERT_NE(module, nullptr) << diags.str();
      for (Function *fn : module->functions())
        if (!fn->isDeclaration())
          expectMatchesBruteForce(*fn, spec.name + " @" + fn->name());
    }
}

TEST(LoopInfo, SingleLoop) {
  Parsed p(kLoop);
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 1u);
  Loop *loop = loopInfo.loops().front().get();
  EXPECT_EQ(loop->header(), p.block("header"));
  EXPECT_EQ(loop->latch(), p.block("body"));
  EXPECT_EQ(loop->preheader(), p.block("entry"));
  EXPECT_EQ(loop->exitBlock(), p.block("exit"));
  EXPECT_TRUE(loop->isInnermost());
  EXPECT_EQ(loop->depth(), 1u);
  EXPECT_EQ(loopInfo.loopFor(p.block("body")), loop);
  EXPECT_EQ(loopInfo.loopFor(p.block("exit")), nullptr);
}

TEST(LoopInfo, NestedLoops) {
  Parsed p(R"(
define void @f() {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ocmp = icmp slt i64 %i, 4
  br i1 %ocmp, label %inner.pre, label %exit
inner.pre:
  br label %inner
inner:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner ]
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
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 2u);
  std::vector<Loop *> top = loopInfo.topLevelLoops();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0]->header(), p.block("outer"));
  ASSERT_EQ(top[0]->subLoops().size(), 1u);
  Loop *inner = top[0]->subLoops()[0];
  EXPECT_EQ(inner->header(), p.block("inner"));
  EXPECT_EQ(inner->depth(), 2u);
  EXPECT_EQ(loopInfo.loopFor(p.block("inner")), inner);
  EXPECT_EQ(loopInfo.loopFor(p.block("outer.latch")), top[0]);
}

TEST(CanonicalLoop, MatchAndTripCount) {
  Parsed p(kLoop);
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_EQ(canonical->step, 2);
  ASSERT_TRUE(canonical->tripCount.has_value());
  EXPECT_EQ(*canonical->tripCount, 16); // (32-0)/2
  EXPECT_EQ(canonical->indVar->name(), "iv");
}

TEST(CanonicalLoop, RejectsNonCanonical) {
  // Exit on true (inverted) is not canonical.
  Parsed p(R"(
define void @f() {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp sge i64 %iv, 32
  br i1 %cmp, label %exit, label %body
body:
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  ASSERT_EQ(loopInfo.loops().size(), 1u);
  EXPECT_FALSE(matchCanonicalLoop(loopInfo.loops().front().get())
                   .has_value());
}

TEST(Linearize, BasicForms) {
  Parsed p(R"(
define void @f(i64 %n) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %a = mul i64 %iv, 8
  %b = add i64 %a, 3
  %c = add i64 %b, %n
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  BasicBlock *body = p.block("body");
  Instruction *iv = p.block("header")->phis().front();
  auto it = body->begin();
  Instruction *a = it->get();
  Instruction *b = std::next(it)->get();
  Instruction *c = std::next(it, 2)->get();

  LinearSubscript sa = linearizeInIV(a, iv);
  EXPECT_TRUE(sa.valid);
  EXPECT_EQ(sa.ivCoef, 8);
  EXPECT_EQ(sa.constant, 0);
  EXPECT_TRUE(sa.symbols.empty());

  LinearSubscript sb = linearizeInIV(b, iv);
  EXPECT_EQ(sb.ivCoef, 8);
  EXPECT_EQ(sb.constant, 3);

  LinearSubscript sc = linearizeInIV(c, iv);
  EXPECT_EQ(sc.ivCoef, 8);
  EXPECT_EQ(sc.constant, 3);
  ASSERT_EQ(sc.symbols.size(), 1u);
  EXPECT_EQ(sc.symbols[0].second, 1);
}

namespace {

/// Builds the classic accumulation loop:
///   for i: s = load p[0]; s' = fadd s, x; store s' -> p[0]
Parsed accumulationLoop() {
  return Parsed(R"(
define void @f([32 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 5
  %s = load double, double* %addr
  %s2 = fadd double %s, %x
  store double %s2, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
}

} // namespace

TEST(Dependence, AccumulationHasCarriedDistanceOne) {
  Parsed p = accumulationLoop();
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<MemAccess> accesses = collectLoopAccesses(*canonical);
  ASSERT_EQ(accesses.size(), 2u);
  EXPECT_TRUE(accesses[0].affine);
  std::vector<LoopDependence> deps = analyzeLoopDependences(accesses);
  bool carried = false;
  for (const LoopDependence &dep : deps)
    if (dep.distance == 1)
      carried = true;
  EXPECT_TRUE(carried);
}

TEST(Dependence, StreamingAccessHasNoCarriedDependence) {
  // store p[iv], load p[iv]: same iteration only.
  Parsed p(R"(
define void @f([32 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %addr = getelementptr [32 x double], [32 x double]* %p, i64 0, i64 %iv
  store double %x, double* %addr
  %v = load double, double* %addr
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<LoopDependence> deps =
      analyzeLoopDependences(collectLoopAccesses(*canonical));
  for (const LoopDependence &dep : deps)
    EXPECT_EQ(dep.distance, 0) << "unexpected carried dependence";
  // But the intra-iteration ordering edge must exist.
  EXPECT_FALSE(deps.empty());
}

TEST(Dependence, ShiftedAccessDistance) {
  // store p[iv], load p[iv - 3]: distance-3 carried dependence.
  Parsed p(R"(
define void @f([64 x double]* %p, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 3, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 64
  br i1 %cmp, label %body, label %exit
body:
  %a1 = getelementptr [64 x double], [64 x double]* %p, i64 0, i64 %iv
  store double %x, double* %a1
  %back = sub i64 %iv, 3
  %a2 = getelementptr [64 x double], [64 x double]* %p, i64 0, i64 %back
  %v = load double, double* %a2
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  std::vector<LoopDependence> deps =
      analyzeLoopDependences(collectLoopAccesses(*canonical));
  bool found = false;
  for (const LoopDependence &dep : deps)
    if (dep.distance == 3)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Dependence, DisjointArraysNoDependence) {
  Parsed p(R"(
define void @f([32 x double]* %a, [32 x double]* %b, double %x) {
entry:
  br label %header
header:
  %iv = phi i64 [ 0, %entry ], [ %next, %body ]
  %cmp = icmp slt i64 %iv, 32
  br i1 %cmp, label %body, label %exit
body:
  %a1 = getelementptr [32 x double], [32 x double]* %a, i64 0, i64 %iv
  store double %x, double* %a1
  %a2 = getelementptr [32 x double], [32 x double]* %b, i64 0, i64 %iv
  %v = load double, double* %a2
  %next = add i64 %iv, 1
  br label %header
exit:
  ret void
}
)");
  DominatorTree domTree(*p.fn);
  LoopInfo loopInfo(*p.fn, domTree);
  auto canonical = matchCanonicalLoop(loopInfo.loops().front().get());
  ASSERT_TRUE(canonical.has_value());
  EXPECT_TRUE(analyzeLoopDependences(collectLoopAccesses(*canonical))
                  .empty());
}

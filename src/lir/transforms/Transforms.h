// Transforms.h - scalar optimization passes over MiniLLVM.
//
// These model the mid-end cleanups both flows get: the MLIR flow runs them
// after lowering (and the adaptor relies on canonical IR), the HLS C++ flow
// runs them inside the "frontend" just as Vitis does after clang codegen.
#pragma once

#include "lir/PassManager.h"

#include <memory>

namespace mha::lir {

/// Promotes allocas whose only uses are same-typed loads/stores to SSA
/// registers: phi insertion at iterated dominance frontiers, then one
/// dominator-tree walk renames every promoted alloca of a function. Loads
/// in unreachable blocks read undef.
std::unique_ptr<ModulePass> createMem2RegPass();

/// Removes unreachable blocks, folds constant conditional branches, merges
/// straight-line block chains and skips empty forwarding blocks.
std::unique_ptr<ModulePass> createSimplifyCFGPass();

/// Deletes side-effect-free instructions with no uses (iterates to fixpoint).
std::unique_ptr<ModulePass> createDCEPass();

/// Constant folding + algebraic identities (x+0, x*1, x*0, gep-zero, ...).
std::unique_ptr<ModulePass> createInstCombinePass();

/// Dominator-scoped common subexpression elimination for pure instructions.
std::unique_ptr<ModulePass> createCSEPass();

/// Loop-invariant code motion: hoists pure instructions whose operands are
/// defined outside the loop into the preheader. Loads/stores/calls stay
/// put (memory motion is the scheduler's business in an HLS flow).
std::unique_ptr<ModulePass> createLICMPass();

// --- Call legalization (multi-function adaptor input) ---

struct InlinerOptions {
  /// Callees with more instructions than this are left as calls (with a
  /// remark) rather than inlined.
  unsigned sizeBudget = 256;
  /// Function name never erased even when every call site was inlined
  /// (the flow's synthesis top).
  std::string preservedFunction;
};

/// Bottom-up size-budgeted inliner. Calls to external, `noinline` or
/// recursive callees are left in place and reported as diagnostics.
/// Callees whose body became side-effect-free are marked `readnone` so DCE
/// can drop unused residual calls; fully-inlined helpers are erased.
std::unique_ptr<ModulePass> createInlinerPass(InlinerOptions options = {});

/// Rewrites directly self-recursive functions into an explicit-stack loop:
/// every SSA value gets a per-frame slot in a local array sized by the
/// recursion depth bound (`mha.rec_depth=N` function attribute, else
/// `defaultMaxDepth`); exceeding the bound executes `unreachable`.
std::unique_ptr<ModulePass> createRec2IterPass(unsigned defaultMaxDepth = 64);

/// Clones callees whose pointer arguments bind distinct buffers at
/// different call sites, so downstream array partitioning and port mapping
/// stay per-call-site.
std::unique_ptr<ModulePass> createCallSitePrivatizationPass();

} // namespace mha::lir

#include "lir/Verifier.h"

#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Printer.h"
#include "lir/analysis/Dominators.h"
#include "support/FlatSet.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <vector>

namespace mha::lir {

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Function &fn, DiagnosticEngine &diags)
      : fn_(fn), diags_(diags) {}

  bool run() {
    if (fn_.isDeclaration())
      return true;
    const_cast<Function &>(fn_).renumberValues();
    checkBlocks();
    if (!diags_.hadError())
      checkDominance();
    return !diags_.hadError();
  }

private:
  void error(const Instruction &inst, const std::string &msg) {
    diags_.error(strfmt("in @%s: %s: in '%s'", fn_.name().c_str(), msg.c_str(),
                        printInstruction(inst).c_str()));
  }

  void checkBlocks() {
    for (const auto &bb : const_cast<Function &>(fn_)) {
      if (bb->empty() || !bb->back()->isTerminator()) {
        diags_.error(strfmt("in @%s: block %%%s has no terminator",
                            fn_.name().c_str(), bb->name().c_str()));
        continue;
      }
      bool seenNonPhi = false;
      bool havePreds = false;
      for (const auto &inst : *bb) {
        if (inst->opcode() == Opcode::Phi) {
          if (seenNonPhi)
            error(*inst, "phi after non-phi instruction");
          if (!havePreds) {
            preds_ = bb->predecessors();
            havePreds = true;
          }
          checkPhi(*inst);
        } else {
          seenNonPhi = true;
        }
        if (inst->isTerminator() && inst.get() != bb->back())
          error(*inst, "terminator in the middle of a block");
        checkTyping(*inst);
      }
    }
  }

  /// Checks `phi` against preds_, its block's predecessors.
  void checkPhi(const Instruction &phi) {
    if (phi.numOperands() % 2 != 0) {
      error(phi, "phi with odd operand count");
      return;
    }
    incoming_.clear();
    for (unsigned i = 0; i < phi.numIncoming(); ++i) {
      const Value *blockOp = phi.operand(2 * i + 1);
      if (!isa<BasicBlock>(blockOp)) {
        error(phi, "phi incoming-block operand is not a block");
        return;
      }
      const BasicBlock *in = phi.incomingBlock(i);
      if (std::find(incoming_.begin(), incoming_.end(), in) != incoming_.end())
        error(phi, "duplicate incoming block in phi");
      else
        incoming_.push_back(in);
      if (std::find(preds_.begin(), preds_.end(), in) == preds_.end())
        error(phi, strfmt("phi incoming block %%%s is not a predecessor",
                          in->name().c_str()));
      if (phi.incomingValue(i)->type() != phi.type() &&
          !isa<UndefValue>(phi.incomingValue(i)))
        error(phi, "phi incoming value type mismatch");
    }
    for (const BasicBlock *pred : preds_)
      if (std::find(incoming_.begin(), incoming_.end(), pred) ==
          incoming_.end())
        error(phi, strfmt("phi is missing an entry for predecessor %%%s",
                          pred->name().c_str()));
  }

  void checkTyping(const Instruction &inst) {
    switch (inst.opcode()) {
    case Opcode::Load:
      if (!inst.operand(0)->type()->isPointer())
        error(inst, "load address is not a pointer");
      else
        checkPointee(inst, cast<PointerType>(inst.operand(0)->type()),
                     inst.type());
      break;
    case Opcode::Store:
      if (!inst.operand(1)->type()->isPointer())
        error(inst, "store address is not a pointer");
      else
        checkPointee(inst, cast<PointerType>(inst.operand(1)->type()),
                     inst.operand(0)->type());
      break;
    case Opcode::GEP: {
      if (!inst.operand(0)->type()->isPointer()) {
        error(inst, "gep base is not a pointer");
        break;
      }
      if (!inst.sourceElemType()) {
        error(inst, "gep without source element type");
        break;
      }
      for (unsigned i = 1; i < inst.numOperands(); ++i)
        if (!inst.operand(i)->type()->isInteger())
          error(inst, "gep index is not an integer");
      break;
    }
    case Opcode::ICmp:
      if (!inst.operand(0)->type()->isInteger() &&
          !inst.operand(0)->type()->isPointer())
        error(inst, "icmp on non-integer");
      break;
    case Opcode::FCmp:
      if (!inst.operand(0)->type()->isFloatingPoint())
        error(inst, "fcmp on non-float");
      break;
    case Opcode::CondBr: {
      // Types are uniqued, so this is `type == i1` without the context's
      // uniquing lock.
      const auto *condTy = dyn_cast<IntType>(inst.operand(0)->type());
      if (!condTy || condTy->width() != 1)
        error(inst, "conditional branch condition is not i1");
      break;
    }
    case Opcode::Call: {
      const Function *callee = inst.calledFunction();
      if (!callee) {
        error(inst, "indirect calls are not supported");
        break;
      }
      const FunctionType *ft = callee->functionType();
      if (ft->paramTypes().size() != inst.numArgs()) {
        error(inst, "call argument count mismatch");
        break;
      }
      for (unsigned i = 0; i < inst.numArgs(); ++i)
        if (inst.arg(i)->type() != ft->paramTypes()[i])
          error(inst, strfmt("call argument %u type mismatch", i));
      if (inst.type() != ft->returnType())
        error(inst, "call result type mismatch");
      break;
    }
    case Opcode::Ret: {
      Type *expected = fn_.returnType();
      if (expected->isVoid()) {
        if (inst.numOperands() != 0)
          error(inst, "ret with value in void function");
      } else if (inst.numOperands() != 1 ||
                 inst.operand(0)->type() != expected) {
        error(inst, "ret value type mismatch");
      }
      break;
    }
    default:
      if (inst.isBinaryOp()) {
        if (inst.operand(0)->type() != inst.operand(1)->type() ||
            inst.operand(0)->type() != inst.type())
          error(inst, "binary op type mismatch");
        bool isFP = inst.opcode() == Opcode::FAdd ||
                    inst.opcode() == Opcode::FSub ||
                    inst.opcode() == Opcode::FMul ||
                    inst.opcode() == Opcode::FDiv;
        if (isFP != inst.type()->isFloatingPoint())
          error(inst, "binary op domain mismatch");
      }
      break;
    }
  }

  void checkPointee(const Instruction &inst, const PointerType *ptrTy,
                    const Type *accessTy) {
    // Typed pointers must agree with the accessed type; opaque pointers
    // carry no constraint (that is exactly the modern laxness the HLS
    // frontend cannot digest).
    if (!ptrTy->isOpaque() && ptrTy->pointee() != accessTy)
      error(inst, "typed-pointer pointee does not match accessed type");
  }

  /// Dominance check for every operand of every reachable instruction.
  /// A def in the user's own block must come strictly before a non-phi
  /// use (so a non-phi never uses its own result); blocks are walked in
  /// layout order, so that is exactly "the def was visited already". A
  /// def in another block must dominate the user's block, and a phi's
  /// incoming value must dominate the end of its incoming block.
  void checkDominance() {
    Function &fn = const_cast<Function &>(fn_);
    DominatorTree domTree(fn);
    size_t numInsts = 0;
    for (const auto &bb : fn)
      numInsts += bb->size();
    FlatSet<const Instruction *> visited(numInsts);
    for (const auto &bb : fn) {
      if (!domTree.isReachable(bb.get()))
        continue;
      for (const auto &inst : *bb) {
        const bool isPhi = inst->opcode() == Opcode::Phi;
        for (unsigned i = 0; i < inst->numOperands(); ++i) {
          const Value *op = inst->operand(i);
          if (!op) {
            error(*inst, strfmt("null operand %u", i));
            continue;
          }
          // Arguments, constants, blocks and functions dominate every use.
          const auto *def = dyn_cast<Instruction>(op);
          if (!def)
            continue;
          bool dominates;
          if (isPhi)
            dominates = domTree.dominates(def->parent(),
                                          inst->incomingBlock(i / 2));
          else if (def->parent() == bb.get())
            dominates = visited.contains(def);
          else
            dominates = domTree.dominates(def->parent(), bb.get());
          if (!dominates)
            error(*inst, strfmt("operand %%%s does not dominate use",
                                op->name().c_str()));
        }
        visited.insert(inst.get());
      }
    }
  }

  const Function &fn_;
  DiagnosticEngine &diags_;
  // Scratch reused across phis: the current block's predecessors (computed
  // once per block) and one phi's incoming blocks.
  std::vector<BasicBlock *> preds_;
  std::vector<const BasicBlock *> incoming_;
};

} // namespace

bool verifyFunction(const Function &fn, DiagnosticEngine &diags) {
  return FunctionVerifier(fn, diags).run();
}

bool verifyModule(const Module &module, DiagnosticEngine &diags) {
  bool ok = true;
  for (const Function *fn : module.functions())
    ok &= verifyFunction(*fn, diags);
  return ok;
}

} // namespace mha::lir

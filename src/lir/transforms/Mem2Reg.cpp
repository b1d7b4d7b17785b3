#include "lir/Function.h"
#include "lir/IRBuilder.h"
#include "lir/LContext.h"
#include "lir/analysis/Dominators.h"
#include "lir/transforms/Transforms.h"
#include "support/Telemetry.h"

#include <algorithm>

namespace mha::lir {

namespace {

telemetry::Statistic numPromoted("mem2reg", "promoted",
                                 "allocas promoted to SSA registers");

/// An alloca is promotable when every use is a load of the allocated type
/// or a store of a value of that type *to* it (never storing the pointer
/// itself anywhere).
bool isPromotable(const Instruction &alloca) {
  Type *ty = alloca.allocatedType();
  if (!ty->isFirstClass())
    return false;
  for (const Use *use : alloca.uses()) {
    const auto *user = dyn_cast<Instruction>(use->user());
    if (!user)
      return false;
    if (user->opcode() == Opcode::Load) {
      if (user->type() != ty)
        return false;
    } else if (user->opcode() == Opcode::Store) {
      // Must be the address operand, and the stored value must match.
      if (use->index() != 1 || user->operand(0)->type() != ty)
        return false;
    } else {
      return false;
    }
  }
  return true;
}

/// Dense per-function CFG facts, indexed by reverse-post-order number:
/// successor lists, dominator-tree children and dominance frontiers of
/// the reachable blocks.
struct BlockFacts {
  static constexpr unsigned kUnreachable = DominatorTree::kUnreachable;

  explicit BlockFacts(Function &fn) : domTree(fn), rpo(domTree.rpo()) {
    const unsigned n = static_cast<unsigned>(rpo.size());
    succs.resize(n);
    children.resize(n);
    frontier.resize(n);
    std::vector<unsigned> idom(n, kUnreachable); // the entry has none
    std::vector<std::vector<unsigned>> preds(n);
    for (unsigned b = 0; b < n; ++b) {
      for (BasicBlock *succ : rpo[b]->successors()) {
        unsigned s = number(succ);
        if (s == kUnreachable) // another function's block: malformed IR
          continue;
        succs[b].push_back(s);
        if (std::find(preds[s].begin(), preds[s].end(), b) == preds[s].end())
          preds[s].push_back(b);
      }
      if (b > 0) {
        idom[b] = number(domTree.idom(rpo[b]));
        children[idom[b]].push_back(b);
      }
    }
    // Cooper/Harvey/Kennedy: walk up from each predecessor of a join
    // block to the join's immediate dominator (past the root for the
    // entry block).
    for (unsigned b = 0; b < n; ++b) {
      if (preds[b].size() < 2)
        continue;
      for (unsigned runner : preds[b])
        for (; runner != idom[b]; runner = idom[runner]) {
          std::vector<unsigned> &df = frontier[runner];
          if (std::find(df.begin(), df.end(), b) == df.end())
            df.push_back(b);
        }
    }
  }

  unsigned number(const BasicBlock *bb) const { return domTree.number(bb); }

  DominatorTree domTree;
  const std::vector<BasicBlock *> &rpo;
  std::vector<std::vector<unsigned>> succs;
  std::vector<std::vector<unsigned>> children;
  std::vector<std::vector<unsigned>> frontier;
};

/// Promotes every promotable alloca of one function: phis at the iterated
/// dominance frontiers of each alloca's stores, then one dominator-tree
/// walk that renames all of them at once, carrying one live value per
/// alloca.
class Promoter {
public:
  Promoter(Function &fn, std::vector<Instruction *> allocas)
      : fn_(fn), ctx_(fn.parentModule()->context()), facts_(fn),
        allocas_(std::move(allocas)), phis_(facts_.rpo.size()) {
    for (unsigned slot = 0; slot < allocas_.size(); ++slot)
      slots_.push_back({allocas_[slot], slot});
    std::sort(slots_.begin(), slots_.end());
  }

  void run() {
    std::vector<unsigned> phiStamp(facts_.rpo.size(), 0);
    for (unsigned slot = 0; slot < allocas_.size(); ++slot)
      placePhis(slot, phiStamp);
    rename();
    removeUnreachableAccesses();
    for (Instruction *alloca : allocas_)
      alloca->eraseFromParent();
    for (unsigned slot = 0; slot < allocas_.size(); ++slot)
      removeTrivialPhis(slot);
  }

private:
  using SlotPhi = std::pair<unsigned, Instruction *>;

  /// The slot of the promotable alloca `ptr` addresses, or -1.
  int slotOf(const Value *ptr) const {
    auto it = std::lower_bound(
        slots_.begin(), slots_.end(), ptr,
        [](const auto &entry, const Value *p) { return entry.first < p; });
    return it != slots_.end() && it->first == ptr ? int(it->second) : -1;
  }

  /// The slot an instruction reads (load) or writes (store), or -1.
  int accessSlot(const Instruction &inst) const {
    if (inst.opcode() == Opcode::Load)
      return slotOf(inst.operand(0));
    if (inst.opcode() == Opcode::Store && inst.numOperands() > 1)
      return slotOf(inst.operand(1));
    return -1;
  }

  /// Places the alloca's phis at the iterated dominance frontier of its
  /// stores' blocks, each at the top of its block, so a later alloca's
  /// phi precedes an earlier one's. `stamp` marks blocks already given a
  /// phi for this slot (stamp == slot + 1).
  void placePhis(unsigned slot, std::vector<unsigned> &stamp) {
    Instruction &alloca = *allocas_[slot];
    std::vector<unsigned> work;
    for (const Use *use : alloca.uses()) {
      auto *user = cast<Instruction>(use->user());
      if (user->opcode() != Opcode::Store)
        continue;
      if (unsigned b = facts_.number(user->parent());
          b != BlockFacts::kUnreachable)
        work.push_back(b);
    }
    IRBuilder builder(ctx_);
    while (!work.empty()) {
      unsigned b = work.back();
      work.pop_back();
      for (unsigned df : facts_.frontier[b]) {
        if (stamp[df] == slot + 1)
          continue;
        stamp[df] = slot + 1;
        work.push_back(df);
        BasicBlock *bb = facts_.rpo[df];
        builder.setInsertPoint(bb, bb->begin());
        phis_[df].push_back(
            {slot, builder.createPhi(alloca.allocatedType(),
                                     alloca.name() + ".phi")});
      }
    }
  }

  /// The renaming walk: a DFS over the dominator tree whose stack holds,
  /// per pending block, the live value of every slot on entry.
  void rename() {
    const size_t numSlots = allocas_.size();
    std::vector<Value *> live(numSlots);
    for (size_t slot = 0; slot < numSlots; ++slot)
      live[slot] = ctx_.undef(allocas_[slot]->allocatedType());
    std::vector<unsigned> stack{0};
    std::vector<Value *> stackLive = live;
    while (!stack.empty()) {
      unsigned b = stack.back();
      stack.pop_back();
      live.assign(stackLive.end() - numSlots, stackLive.end());
      stackLive.resize(stackLive.size() - numSlots);
      BasicBlock *bb = facts_.rpo[b];
      for (auto [slot, phi] : phis_[b])
        live[slot] = phi;
      for (auto it = bb->begin(); it != bb->end();) {
        Instruction &inst = **it;
        int slot = accessSlot(inst);
        if (slot < 0) {
          ++it;
          continue;
        }
        if (inst.opcode() == Opcode::Load)
          inst.replaceAllUsesWith(live[slot]);
        else
          live[slot] = inst.operand(0);
        it = bb->erase(it);
      }
      for (unsigned succ : facts_.succs[b])
        for (auto [slot, phi] : phis_[succ])
          phi->addIncoming(live[slot], bb);
      for (unsigned child : facts_.children[b]) {
        stack.push_back(child);
        stackLive.insert(stackLive.end(), live.begin(), live.end());
      }
    }
  }

  /// The walk never visits unreachable blocks: their loads read undef and
  /// their stores go, and a phi placed in a join with an unreachable
  /// predecessor takes undef from it.
  void removeUnreachableAccesses() {
    for (auto &block : fn_) {
      BasicBlock *bb = block.get();
      if (facts_.number(bb) != BlockFacts::kUnreachable)
        continue;
      for (auto it = bb->begin(); it != bb->end();) {
        Instruction &inst = **it;
        int slot = accessSlot(inst);
        if (slot < 0) {
          ++it;
          continue;
        }
        if (inst.opcode() == Opcode::Load)
          inst.replaceAllUsesWith(ctx_.undef(inst.type()));
        it = bb->erase(it);
      }
    }
    for (unsigned b = 0; b < phis_.size(); ++b) {
      if (phis_[b].empty())
        continue;
      for (BasicBlock *pred : facts_.rpo[b]->predecessors())
        if (facts_.number(pred) == BlockFacts::kUnreachable)
          for (auto [slot, phi] : phis_[b])
            phi->addIncoming(ctx_.undef(phi->type()), pred);
    }
  }

  /// Drops the slot's phis that ended up trivial (every incoming value the
  /// same or the phi itself), in RPO order until none changes.
  void removeTrivialPhis(unsigned slot) {
    for (bool simplified = true; simplified;) {
      simplified = false;
      for (std::vector<SlotPhi> &blockPhis : phis_)
        for (auto &[phiSlot, phi] : blockPhis) {
          if (phiSlot != slot || !phi)
            continue;
          Value *common = nullptr;
          bool trivial = true;
          for (unsigned i = 0; i < phi->numIncoming() && trivial; ++i) {
            Value *in = phi->incomingValue(i);
            if (in == phi)
              continue;
            trivial = !common || in == common;
            common = in;
          }
          if (!trivial || !common)
            continue;
          phi->replaceAllUsesWith(common);
          phi->eraseFromParent();
          phi = nullptr;
          simplified = true;
        }
    }
  }

  Function &fn_;
  LContext &ctx_;
  BlockFacts facts_;
  std::vector<Instruction *> allocas_;
  /// (alloca, slot) sorted by address, for slotOf.
  std::vector<std::pair<const Value *, unsigned>> slots_;
  /// Per RPO number: the phis placed there, in slot order.
  std::vector<std::vector<SlotPhi>> phis_;
};

class Mem2Reg : public FunctionPass {
public:
  std::string name() const override { return "mem2reg"; }

  bool runOnFunction(Function &fn, PassStats &stats,
                     DiagnosticEngine &) override {
    if (fn.isDeclaration())
      return false;
    std::vector<Instruction *> allocas;
    for (auto &inst : *fn.entry())
      if (inst->opcode() == Opcode::Alloca && isPromotable(*inst))
        allocas.push_back(inst.get());
    if (allocas.empty())
      return false;
    const auto promoted = static_cast<int64_t>(allocas.size());
    Promoter(fn, std::move(allocas)).run();
    stats["mem2reg.promoted"] += promoted;
    numPromoted += promoted;
    return true;
  }
};

} // namespace

std::unique_ptr<ModulePass> createMem2RegPass() {
  return std::make_unique<Mem2Reg>();
}

} // namespace mha::lir

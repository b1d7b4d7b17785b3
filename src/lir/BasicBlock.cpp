#include "lir/BasicBlock.h"

#include "lir/Function.h"

#include <cassert>

namespace mha::lir {

Instruction *BasicBlock::append(std::unique_ptr<Instruction> inst) {
  inst->parent_ = this;
  insts_.push_back(std::move(inst));
  return insts_.back().get();
}

Instruction *BasicBlock::insert(iterator pos,
                                std::unique_ptr<Instruction> inst) {
  inst->parent_ = this;
  return insts_.insert(pos, std::move(inst))->get();
}

BasicBlock::iterator BasicBlock::positionOf(Instruction *inst) {
  for (auto it = insts_.begin(); it != insts_.end(); ++it)
    if (it->get() == inst)
      return it;
  assert(false && "instruction not in block");
  return insts_.end();
}

BasicBlock::iterator BasicBlock::erase(iterator pos) {
  (*pos)->dropAllOperands();
  return insts_.erase(pos);
}

BasicBlock::iterator BasicBlock::firstNonPhi() {
  auto it = insts_.begin();
  while (it != insts_.end() && (*it)->opcode() == Opcode::Phi)
    ++it;
  return it;
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  const Instruction *term = terminator();
  if (!term)
    return {};
  return term->successors();
}

std::vector<BasicBlock *> BasicBlock::predecessors() const {
  std::vector<BasicBlock *> preds;
  for (const Use *use : uses()) {
    auto *inst = dyn_cast<Instruction>(use->user());
    if (!inst || !inst->isTerminator())
      continue;
    BasicBlock *pred = inst->parent();
    if (std::find(preds.begin(), preds.end(), pred) == preds.end())
      preds.push_back(pred);
  }
  return preds;
}

std::vector<Instruction *> BasicBlock::phis() const {
  std::vector<Instruction *> out;
  for (const auto &inst : insts_) {
    if (inst->opcode() != Opcode::Phi)
      break;
    out.push_back(inst.get());
  }
  return out;
}

} // namespace mha::lir

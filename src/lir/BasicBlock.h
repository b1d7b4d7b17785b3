// BasicBlock.h - CFG nodes owning instruction lists.
#pragma once

#include "lir/Instruction.h"

#include <list>
#include <memory>

namespace mha::lir {

class Function;

class BasicBlock : public Value {
public:
  using InstList = std::list<std::unique_ptr<Instruction>>;
  using iterator = InstList::iterator;
  using const_iterator = InstList::const_iterator;

  explicit BasicBlock(Type *labelTy, std::string name = "")
      : Value(Kind::BasicBlock, labelTy) {
    setName(std::move(name));
  }

  Function *parent() const { return parent_; }

  iterator begin() { return insts_.begin(); }
  iterator end() { return insts_.end(); }
  const_iterator begin() const { return insts_.begin(); }
  const_iterator end() const { return insts_.end(); }
  bool empty() const { return insts_.empty(); }
  size_t size() const { return insts_.size(); }

  Instruction *front() { return insts_.front().get(); }
  Instruction *back() { return insts_.back().get(); }
  const Instruction *back() const { return insts_.back().get(); }

  /// The block terminator, or nullptr if the block is not yet terminated.
  Instruction *terminator() {
    return (!insts_.empty() && insts_.back()->isTerminator()) ? back()
                                                              : nullptr;
  }
  const Instruction *terminator() const {
    return (!insts_.empty() && insts_.back()->isTerminator())
               ? insts_.back().get()
               : nullptr;
  }

  /// Appends `inst` (takes ownership) and returns the raw pointer.
  Instruction *append(std::unique_ptr<Instruction> inst);
  /// Inserts before `pos`.
  Instruction *insert(iterator pos, std::unique_ptr<Instruction> inst);
  /// Finds the list position of `inst` (must be in this block).
  iterator positionOf(Instruction *inst);
  /// Destroys the instruction at `pos` (dropping its operands first) and
  /// returns the position after it.
  iterator erase(iterator pos);

  /// First non-phi position.
  iterator firstNonPhi();

  /// Blocks this block can transfer control to.
  std::vector<BasicBlock *> successors() const;
  /// Blocks that can transfer control here (derived from this value's uses
  /// by terminator instructions).
  std::vector<BasicBlock *> predecessors() const;

  /// All phi instructions at the top of the block.
  std::vector<Instruction *> phis() const;

  static bool classof(const Value *v) {
    return v->valueKind() == Kind::BasicBlock;
  }

private:
  friend class Function;
  friend class Instruction;
  Function *parent_ = nullptr;
  InstList insts_;
};

} // namespace mha::lir

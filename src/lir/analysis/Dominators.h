// Dominators.h - dominator tree over the CFG.
//
// Cooper/Harvey/Kennedy iterative algorithm; plenty fast for HLS-kernel
// sized functions and simple enough to audit. Per-block facts live in
// vectors indexed by the block's reverse-post-order number.
#pragma once

#include <unordered_map>
#include <vector>

namespace mha::lir {

class BasicBlock;
class Function;

class DominatorTree {
public:
  explicit DominatorTree(Function &fn);

  /// Immediate dominator of `bb` (nullptr for the entry block and for
  /// unreachable blocks).
  BasicBlock *idom(const BasicBlock *bb) const;

  /// True if `a` dominates `b` (reflexive). Every block dominates an
  /// unreachable block; an unreachable block dominates no reachable one.
  bool dominates(const BasicBlock *a, const BasicBlock *b) const;

  /// Blocks in reverse post order (entry first); unreachable blocks absent.
  const std::vector<BasicBlock *> &rpo() const { return rpo_; }

  bool isReachable(const BasicBlock *bb) const {
    return number(bb) != kUnreachable;
  }

  static constexpr unsigned kUnreachable = ~0u;

  /// RPO number of `bb` (its index in rpo()), or kUnreachable.
  unsigned number(const BasicBlock *bb) const;

private:
  std::vector<BasicBlock *> rpo_;
  /// Every block of the function -> its RPO number (kUnreachable when
  /// unreachable).
  std::unordered_map<const BasicBlock *, unsigned> numbers_;
  /// RPO number -> its immediate dominator's RPO number (the entry's is
  /// itself).
  std::vector<unsigned> idom_;
};

} // namespace mha::lir

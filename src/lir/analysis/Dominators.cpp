#include "lir/analysis/Dominators.h"

#include "lir/Function.h"

#include <algorithm>

namespace mha::lir {

DominatorTree::DominatorTree(Function &fn) {
  if (fn.isDeclaration())
    return;
  numbers_.reserve(fn.numBlocks());
  for (const auto &bb : fn)
    numbers_.emplace(bb.get(), kUnreachable);

  // Post-order DFS. A block's number is kOnStack from discovery until it
  // finishes, then its post-order number. A successor of another function
  // (malformed IR the verifier must survive) has no entry and is skipped.
  constexpr unsigned kOnStack = kUnreachable - 1;
  BasicBlock *entry = fn.entry();
  std::vector<std::pair<BasicBlock *, size_t>> stack;
  stack.push_back({entry, 0});
  numbers_[entry] = kOnStack;
  while (!stack.empty()) {
    auto &[bb, next] = stack.back();
    std::vector<BasicBlock *> succs = bb->successors();
    if (next < succs.size()) {
      BasicBlock *succ = succs[next++];
      auto it = numbers_.find(succ);
      if (it != numbers_.end() && it->second == kUnreachable) {
        it->second = kOnStack;
        stack.push_back({succ, 0});
      }
    } else {
      numbers_[bb] = static_cast<unsigned>(rpo_.size());
      rpo_.push_back(bb);
      stack.pop_back();
    }
  }
  std::reverse(rpo_.begin(), rpo_.end());
  const unsigned n = static_cast<unsigned>(rpo_.size());
  for (auto &[bb, num] : numbers_)
    if (num != kUnreachable)
      num = n - 1 - num;

  // Reachable edges as (to, from) RPO numbers, grouped by target.
  std::vector<std::pair<unsigned, unsigned>> edges;
  for (unsigned from = 0; from < n; ++from)
    for (BasicBlock *succ : rpo_[from]->successors())
      if (unsigned to = number(succ); to != kUnreachable)
        edges.push_back({to, from});
  std::sort(edges.begin(), edges.end());

  // Iterative idom computation (Cooper-Harvey-Kennedy).
  idom_.assign(n, kUnreachable);
  idom_[0] = 0;
  auto intersect = [this](unsigned a, unsigned b) {
    while (a != b) {
      while (a > b)
        a = idom_[a];
      while (b > a)
        b = idom_[b];
    }
    return a;
  };
  for (bool changed = true; changed;) {
    changed = false;
    size_t e = 0;
    for (unsigned bb = 1; bb < n; ++bb) {
      while (e < edges.size() && edges[e].first < bb)
        ++e;
      unsigned newIdom = kUnreachable;
      for (; e < edges.size() && edges[e].first == bb; ++e) {
        unsigned pred = edges[e].second;
        if (idom_[pred] == kUnreachable)
          continue;
        newIdom = newIdom == kUnreachable ? pred : intersect(newIdom, pred);
      }
      if (newIdom != kUnreachable && newIdom != idom_[bb]) {
        idom_[bb] = newIdom;
        changed = true;
      }
    }
  }
}

unsigned DominatorTree::number(const BasicBlock *bb) const {
  auto it = numbers_.find(bb);
  return it != numbers_.end() ? it->second : kUnreachable;
}

BasicBlock *DominatorTree::idom(const BasicBlock *bb) const {
  unsigned num = number(bb);
  if (num == kUnreachable || num == 0)
    return nullptr;
  return rpo_[idom_[num]];
}

bool DominatorTree::dominates(const BasicBlock *a, const BasicBlock *b) const {
  unsigned nb = number(b);
  if (nb == kUnreachable)
    return true; // vacuous: unreachable code
  unsigned na = number(a);
  if (na == kUnreachable)
    return false;
  // A dominator precedes the blocks it dominates in RPO: climb b's idom
  // chain until it is no later than a.
  while (nb > na)
    nb = idom_[nb];
  return nb == na;
}

} // namespace mha::lir

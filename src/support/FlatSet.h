// FlatSet.h - a fixed-capacity open-addressing hash set for small keys.
//
// One allocation, sized once for the most keys the set will hold, and no
// per-key nodes: built for the short-lived sets on the verifier's hot
// path (the names claimed while renumbering a function, the instructions
// already visited while checking dominance). Keys are small trivially
// copyable values such as pointers and string_views; the value-initialized
// key (nullptr, the empty view) marks a free slot and is never inserted.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mha {

template <typename Key> class FlatSet {
public:
  /// A set for up to `maxKeys` keys (the load factor stays at most 1/2).
  explicit FlatSet(size_t maxKeys)
      : slots_(std::bit_ceil(2 * maxKeys + 2)),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// The slot holding `key` if present, else the free slot where `key`
  /// belongs: storing `key` (or an equal key) there inserts it.
  Key &slot(const Key &key) {
    const size_t mask = slots_.size() - 1;
    // Fibonacci mixing: pointer hashes are the (aligned) addresses
    // themselves, whose low bits would otherwise all collide.
    uint64_t hash = std::hash<Key>()(key);
    size_t i = static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i] != Key() && slots_[i] != key)
      i = (i + 1) & mask;
    return slots_[i];
  }

  bool contains(const Key &key) { return slot(key) != Key(); }
  void insert(const Key &key) { slot(key) = key; }
  void clear() { std::fill(slots_.begin(), slots_.end(), Key()); }

private:
  std::vector<Key> slots_;
  int shift_;
};

} // namespace mha

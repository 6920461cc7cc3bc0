// PNB-BST node types (Fig. 2, lines 15–27).
//
// Leaf-oriented tree: Internal nodes route, Leaf nodes store the set
// members. Relative to NB-BST, each node carries two extra fields that
// implement persistence: `prev` (the node this one replaced — immutable) and
// `seq` (the phase that created it). Dispatch between Leaf and Internal is a
// branch on a flag rather than a vtable (nodes are CASed, copied and traced
// as raw memory; virtual dispatch buys nothing and costs a word).
//
// The flag is the top bit of the `seq` word, not a byte of its own: phases
// stay below 2^63 (see PnbBst::counter_), and a separate `bool` would pad
// to a whole word. Packed, the serving map's leaf (24-byte key) is 48 B and
// its internal node 64 B: one cache line, both child pointers on the key's
// line (DESIGN.md §2, §11.1).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/keyspace.h"
#include "core/tagged_update.h"

namespace pnbbst {

template <class Key>
struct PnbInfo;  // fwd; defined in core/info.h

template <class Key>
struct PnbNode {
  using Info = PnbInfo<Key>;
  using Update = TaggedUpdate<Info>;

  ExtKey<Key> key;                       // immutable (Observation 1)
  std::atomic<std::uintptr_t> update{0}; // the one-CAS-word freeze field
  PnbNode* prev = nullptr;               // immutable: node this one replaced
  std::uint64_t seq : 63;                // immutable: creating phase
  const std::uint64_t leaf : 1;          // immutable type tag

  explicit PnbNode(bool is_leaf) : seq(0), leaf(is_leaf) {}

  bool is_leaf() const noexcept { return leaf != 0; }

  Update load_update(std::memory_order order = std::memory_order_seq_cst)
      const noexcept {
    return Update(update.load(order));
  }
  void store_update(Update u,
                    std::memory_order order = std::memory_order_seq_cst)
      noexcept {
    update.store(u.raw(), order);
  }
  bool cas_update(Update expected, Update desired) noexcept {
    std::uintptr_t e = expected.raw();
    return update.compare_exchange_strong(e, desired.raw(),
                                          std::memory_order_seq_cst);
  }
};

template <class Key>
struct PnbLeaf : PnbNode<Key> {
  PnbLeaf() : PnbNode<Key>(/*is_leaf=*/true) {}
};

template <class Key>
struct PnbInternal : PnbNode<Key> {
  std::atomic<PnbNode<Key>*> left{nullptr};
  std::atomic<PnbNode<Key>*> right{nullptr};

  PnbInternal() : PnbNode<Key>(/*is_leaf=*/false) {}

  std::atomic<PnbNode<Key>*>& child(bool go_left) noexcept {
    return go_left ? left : right;
  }
  PnbNode<Key>* load_child(bool go_left) const noexcept {
    return (go_left ? left : right).load(std::memory_order_seq_cst);
  }
};

template <class Key>
inline PnbInternal<Key>* as_internal(PnbNode<Key>* n) noexcept {
  return static_cast<PnbInternal<Key>*>(n);
}
template <class Key>
inline const PnbInternal<Key>* as_internal(const PnbNode<Key>* n) noexcept {
  return static_cast<const PnbInternal<Key>*>(n);
}

}  // namespace pnbbst

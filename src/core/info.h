// Info records (Fig. 2, lines 5–14) plus the lifetime manager that lets a
// non-GC language reclaim them.
//
// Semantics per the paper: an Info record describes one attempt of an
// Insert (freezes nodes[0]=p flagged, nodes[1]=l marked) or Delete
// (nodes[0]=gp flagged, nodes[1..3]=p,l,sibling marked). Only `state`
// mutates after construction (Observation 1). In both shapes, exactly the
// nodes at index >= 1 are marked, so membership in `I.mark` is an index
// test rather than a stored array.
//
// Lifetime (DESIGN.md §1, substitution 1): update words keep pointing at an
// Info long after the operation finished, so Infos are reference-counted:
//   +1 by a thread *before* it attempts a freeze CAS installing the Info
//      (pre-increment keeps the count conservative: the count can never
//      under-report a word that still points at the Info);
//   -1 if that freeze CAS fails;
//   -1 by the thread whose freeze CAS overwrites a word pointing at it;
//   -1 by the node deleter for the word's final value.
// The decrement that reaches zero retires the Info through the epoch
// reclaimer (its state is final by then, Lemma 9); a `retired` latch makes
// the transition idempotent against late helpers that transiently
// resurrect the count (+1/-1 around a doomed CAS).
//
// Layout: the `retired` latch sits in the padding after the four one-byte
// header fields, so for the serving map (24-byte key) the record is 128 B,
// exactly a two-line arena slot (DESIGN.md §11.3).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/node.h"
#include "core/tagged_update.h"
#include "util/cacheline.h"

namespace pnbbst {

enum class InfoState : std::uint8_t {
  kUndecided = 0,  // ⊥
  kTry = 1,
  kCommit = 2,
  kAbort = 3,
};

// Cache-line isolation is the allocator's job, not the type's: arena size
// classes round every slot up to whole cache lines and 64-align it, so
// slab-packed Infos never false-share on `state`. The struct itself stays
// naturally aligned — an alignas(kCacheLine) here would force every heap
// allocation through the over-aligned operator new (a measurably slower
// memalign path on the update-heavy benches) for no benefit, since malloc
// chunk headers already separate adjacent records.
template <class Key>
struct PnbInfo {
  using Node = PnbNode<Key>;
  using Internal = PnbInternal<Key>;
  using Update = TaggedUpdate<PnbInfo>;

  static constexpr int kMaxNodes = 4;

  std::atomic<InfoState> state{InfoState::kUndecided};
  std::uint8_t num_nodes = 0;     // 2 for Insert, 4 for Delete
  bool is_dummy = false;          // the per-tree Dummy record (line 30)
  bool from_delete = false;       // provenance (debug / stats only)
  std::atomic<bool> retired{false};  // lifetime latch (see ref_release)
  Node* nodes[kMaxNodes] = {};  // nodes to freeze; [0] flagged, rest marked
  Update old_update[kMaxNodes];   // expected values for the freeze CASes
  Internal* par = nullptr;        // node whose child pointer will change
  Node* old_child = nullptr;
  Node* new_child = nullptr;
  std::uint64_t seq = 0;          // the attempt's sequence number

  // Lifetime manager (not part of the paper's record).
  std::atomic<std::int64_t> live_refs{0};
  // Type-erased hook back to the owning tree's reclaimer, installed at
  // construction; invoked by whichever thread drops the last reference.
  void* reclaim_ctx = nullptr;
  void (*retire_fn)(void* ctx, PnbInfo* self) = nullptr;

  InfoState load_state(std::memory_order order = std::memory_order_seq_cst)
      const noexcept {
    return state.load(order);
  }

  bool state_in_progress() const noexcept {
    const InfoState s = load_state();
    return s == InfoState::kUndecided || s == InfoState::kTry;
  }

  // Whether index i belongs to I.mark (see file comment).
  bool is_marked_index(int i) const noexcept { return i >= 1; }

  // Lifetime helpers -------------------------------------------------------

  void ref_acquire() noexcept {
    live_refs.fetch_add(1, std::memory_order_acq_rel);
  }

  // Returns true iff this release was the one that dropped the count to
  // zero *for the first time* — the caller must then retire the record.
  bool ref_release() noexcept {
    if (live_refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    return !retired.exchange(true, std::memory_order_acq_rel);
  }
};

// Frozen(up) — Fig. 4, lines 89–91. Dummy words answer from the tag bits
// alone (the Dummy Info is permanently kAbort: flag → not in progress,
// mark → aborted), skipping the dependent load of the Info's state.
template <class Key>
inline bool frozen(TaggedUpdate<PnbInfo<Key>> up) noexcept {
  if (up.is_dummy()) return false;
  const InfoState s = up.info()->load_state();
  if (up.is_flag()) {
    return s == InfoState::kUndecided || s == InfoState::kTry;
  }
  return s != InfoState::kAbort;  // Mark: ⊥, Try or Commit
}

}  // namespace pnbbst

// Uniform facade over the set implementations so benchmarks, tests and
// examples can be written once and instantiated per structure.
//
// The adapter surface is specified by the concepts in core/concepts.h and
// enforced by the static_asserts at the bottom of this header — adding a
// structure or changing a signature that breaks the contract is a compile
// error, not a silent duck-typing divergence:
//
//   OrderedSet       bool insert(k) / erase(k) / contains(k)
//   Scannable        size_t range_count(lo, hi), vector<K> range_scan(lo, hi)
//   PrefixScannable  range_visit(lo, hi, vis) — vis returns void (visit
//                    all) or bool (false stops); emulated with a dead-visit
//                    flag on structures without native early termination
//   Snapshottable    snapshot() (only where kHasSnapshot — PNB-BST)
//
// Scans are linearizable where the structure supports it (see
// kLinearizableScan); the *_unsafe traversals of NB-BST and the skiplist are
// best-effort.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "core/concepts.h"
#include "core/pnb_bst.h"
#include "nbbst/nb_bst.h"

namespace pnbbst {

namespace detail {

// Early-termination emulation for structures without a native stopping
// scan: traversal continues, emission stops once a bool visitor returns
// false (a void visitor sees everything; see visit_continues).
template <class Traverse, class Vis>
void range_visit_emulated(Traverse&& traverse, Vis&& vis) {
  bool go = true;
  traverse([&go, &vis](const auto& k) {
    if (go) go = visit_continues(vis, k);
  });
}

}  // namespace detail

template <class Tree>
struct SetAdapter;

template <class K, class C, class R, class S, class A>
struct SetAdapter<PnbBst<K, C, R, S, A>>
    : OneShotQueries<SetAdapter<PnbBst<K, C, R, S, A>>> {
  using Tree = PnbBst<K, C, R, S, A>;
  using key_type = K;
  using Snapshot = typename Tree::Snapshot;
  using bulk_item = typename Tree::bulk_item;
  using batch_op = typename Tree::batch_op;
  // Arena-backed instantiations report a distinct name so benchmark rows
  // (fig4, tab9, micro_ops) can diff the two configurations side by side.
  static constexpr const char* kName =
      A::kIsArena ? "pnb-bst-arena" : "pnb-bst";
  static constexpr bool kLinearizableScan = true;
  static constexpr bool kHasSnapshot = true;

  // The base makes this adapter a non-aggregate; adapt(t) needs a ctor.
  explicit SetAdapter(Tree& tree) : t(tree) {}

  Tree& t;
  bool insert(const K& k) { return t.insert(k); }
  bool erase(const K& k) { return t.erase(k); }
  bool contains(const K& k) { return t.contains(k); }
  // The queries come from OneShotQueries, as on the tree; among them the
  // parallel_range_count the baselines lack (no multi-version substrate).
  Snapshot snapshot() { return t.snapshot(); }
  Snapshot snapshot(const K& lo, const K& hi) { return t.snapshot(lo, hi); }
  // Batch ingest (src/ingest/); PNB-BST only — the baselines have no bulk
  // constructor and no executor-driven batch path.
  std::size_t bulk_load(std::vector<K> keys,
                        const scan::ParallelScanOptions& o = {}) {
    return t.bulk_load(std::move(keys), o);
  }
  ingest::BatchResult apply_batch(std::vector<batch_op> ops,
                                  const scan::ParallelScanOptions& o = {}) {
    return t.apply_batch(std::move(ops), o);
  }
};

template <class K, class C, class R, class S, class A>
struct SetAdapter<NbBst<K, C, R, S, A>> {
  using Tree = NbBst<K, C, R, S, A>;
  using key_type = K;
  static constexpr const char* kName =
      A::kIsArena ? "nb-bst-arena" : "nb-bst";
  static constexpr bool kLinearizableScan = false;  // best-effort traversal
  static constexpr bool kHasSnapshot = false;

  Tree& t;
  bool insert(const K& k) { return t.insert(k); }
  bool erase(const K& k) { return t.erase(k); }
  bool contains(const K& k) { return t.contains(k); }
  std::size_t range_count(const K& lo, const K& hi) {
    std::size_t n = 0;
    t.range_visit_unsafe(lo, hi, [&n](const K&) { ++n; });
    return n;
  }
  std::vector<K> range_scan(const K& lo, const K& hi) {
    return t.range_scan_unsafe(lo, hi);
  }
  template <class Vis>
  void range_visit(const K& lo, const K& hi, Vis&& vis) {
    detail::range_visit_emulated(
        [&](auto&& emit) { t.range_visit_unsafe(lo, hi, emit); },
        std::forward<Vis>(vis));
  }
};

template <class K, class C, class S>
struct SetAdapter<LockedBst<K, C, S>> {
  using Tree = LockedBst<K, C, S>;
  using key_type = K;
  static constexpr const char* kName = "locked-bst";
  static constexpr bool kLinearizableScan = true;  // blocking
  static constexpr bool kHasSnapshot = false;

  Tree& t;
  bool insert(const K& k) { return t.insert(k); }
  bool erase(const K& k) { return t.erase(k); }
  bool contains(const K& k) { return t.contains(k); }
  std::size_t range_count(const K& lo, const K& hi) {
    return t.range_count(lo, hi);
  }
  std::vector<K> range_scan(const K& lo, const K& hi) {
    return t.range_scan(lo, hi);
  }
  template <class Vis>
  void range_visit(const K& lo, const K& hi, Vis&& vis) {
    detail::range_visit_emulated(
        [&](auto&& emit) { t.range_visit(lo, hi, emit); },
        std::forward<Vis>(vis));
  }
};

template <class K, class C, class R, class S>
struct SetAdapter<CowBst<K, C, R, S>> {
  using Tree = CowBst<K, C, R, S>;
  using key_type = K;
  static constexpr const char* kName = "cow-bst";
  static constexpr bool kLinearizableScan = true;  // snapshot at root load
  static constexpr bool kHasSnapshot = false;

  Tree& t;
  bool insert(const K& k) { return t.insert(k); }
  bool erase(const K& k) { return t.erase(k); }
  bool contains(const K& k) { return t.contains(k); }
  std::size_t range_count(const K& lo, const K& hi) {
    return t.range_count(lo, hi);
  }
  std::vector<K> range_scan(const K& lo, const K& hi) {
    return t.range_scan(lo, hi);
  }
  template <class Vis>
  void range_visit(const K& lo, const K& hi, Vis&& vis) {
    detail::range_visit_emulated(
        [&](auto&& emit) { t.range_visit(lo, hi, emit); },
        std::forward<Vis>(vis));
  }
};

template <class K, class C, class R, class S>
struct SetAdapter<LfSkipList<K, C, R, S>> {
  using Tree = LfSkipList<K, C, R, S>;
  using key_type = K;
  static constexpr const char* kName = "lf-skiplist";
  static constexpr bool kLinearizableScan = false;  // best-effort traversal
  static constexpr bool kHasSnapshot = false;

  Tree& t;
  bool insert(const K& k) { return t.insert(k); }
  bool erase(const K& k) { return t.erase(k); }
  bool contains(const K& k) { return t.contains(k); }
  std::size_t range_count(const K& lo, const K& hi) {
    std::size_t n = 0;
    t.range_visit_unsafe(lo, hi, [&n](const K&) { ++n; });
    return n;
  }
  std::vector<K> range_scan(const K& lo, const K& hi) {
    return t.range_scan_unsafe(lo, hi);
  }
  template <class Vis>
  void range_visit(const K& lo, const K& hi, Vis&& vis) {
    detail::range_visit_emulated(
        [&](auto&& emit) { t.range_visit_unsafe(lo, hi, emit); },
        std::forward<Vis>(vis));
  }
};

template <class Tree>
SetAdapter<Tree> adapt(Tree& t) {
  return SetAdapter<Tree>{t};
}

// --- Contract enforcement ---------------------------------------------------
// Every adapter specialization must model the full set surface; the PNB-BST
// adapter additionally models Snapshottable. Checked here once so every TU
// that talks to a structure through the adapter gets the guarantee for free.
static_assert(OrderedSet<SetAdapter<PnbBst<long>>, long>);
static_assert(OrderedSet<SetAdapter<NbBst<long>>, long>);
static_assert(OrderedSet<SetAdapter<LockedBst<long>>, long>);
static_assert(OrderedSet<SetAdapter<CowBst<long>>, long>);
static_assert(OrderedSet<SetAdapter<LfSkipList<long>>, long>);

static_assert(Scannable<SetAdapter<PnbBst<long>>, long>);
static_assert(Scannable<SetAdapter<NbBst<long>>, long>);
static_assert(Scannable<SetAdapter<LockedBst<long>>, long>);
static_assert(Scannable<SetAdapter<CowBst<long>>, long>);
static_assert(Scannable<SetAdapter<LfSkipList<long>>, long>);

static_assert(PrefixScannable<SetAdapter<PnbBst<long>>, long>);
static_assert(PrefixScannable<SetAdapter<NbBst<long>>, long>);
static_assert(PrefixScannable<SetAdapter<LockedBst<long>>, long>);
static_assert(PrefixScannable<SetAdapter<CowBst<long>>, long>);
static_assert(PrefixScannable<SetAdapter<LfSkipList<long>>, long>);

static_assert(Snapshottable<SetAdapter<PnbBst<long>>>);
static_assert(PhasedSnapshottable<SetAdapter<PnbBst<long>>>);

// Parallel counts: modeled by the PNB-BST adapter alone (the engine chunks
// one multi-version snapshot; the baselines have nothing equivalent).
static_assert(ParallelScannable<SetAdapter<PnbBst<long>>, long>);
static_assert(!ParallelScannable<SetAdapter<LockedBst<long>>, long>);
static_assert(!ParallelScannable<SetAdapter<LfSkipList<long>>, long>);

// Batch ingest (src/ingest/): PNB-BST adapter alone, for the same reason.
static_assert(BatchIngestible<SetAdapter<PnbBst<long>>>);
static_assert(!BatchIngestible<SetAdapter<NbBst<long>>>);
static_assert(!BatchIngestible<SetAdapter<LockedBst<long>>>);
static_assert(!BatchIngestible<SetAdapter<CowBst<long>>>);
static_assert(!BatchIngestible<SetAdapter<LfSkipList<long>>>);

// The underlying structures model the concepts directly as well.
static_assert(OrderedSet<PnbBst<long>, long> && Scannable<PnbBst<long>, long> &&
              PrefixScannable<PnbBst<long>, long> &&
              PhasedSnapshottable<PnbBst<long>> &&
              BatchIngestible<PnbBst<long>>);

}  // namespace pnbbst

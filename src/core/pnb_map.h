// PnbMap — an ordered key/value map layered on PnbBst.
//
// Entries are (key, value) structs compared by key only; the tree stores
// whole entries in its leaves, so lookups return the stored value. Insert
// has insert-if-absent semantics, matching the underlying set (the paper's
// structure has no in-place value update; `assign` is erase+insert and is
// therefore NOT atomic — documented).
//
// Lookups are heterogeneous: contains / get / get_or / erase and all range
// queries probe the tree with the key (or, when Compare is transparent, any
// type Compare can order against K) and never construct a V. Values are
// stored in a ValueBox so V does not have to be default-constructible: the
// tree's sentinel entries simply hold an empty box (their values are never
// read).
//
// All guarantees carry over: non-blocking updates/lookups, wait-free
// linearizable range queries and snapshots (see PnbBst::Snapshot).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/one_shot_queries.h"
#include "core/pnb_bst.h"
#include "ingest/batch_apply.h"
#include "scan/parallel_scan.h"
#include "util/cacheline.h"

namespace pnbbst {

namespace detail {

// Storage for a map entry's value. Sentinel/probe entries never have their
// value read, so a default-constructible V is stored directly (zero space
// overhead); otherwise an optional supplies the empty default state.
template <class V, bool = std::is_default_constructible_v<V>>
struct ValueBox {
  V v{};
  ValueBox() = default;
  explicit ValueBox(V val) : v(std::move(val)) {}
  V& get() noexcept { return v; }
  const V& get() const noexcept { return v; }
};

template <class V>
struct ValueBox<V, false> {
  std::optional<V> v{};
  ValueBox() = default;
  explicit ValueBox(V val) : v(std::move(val)) {}
  V& get() noexcept { return *v; }
  const V& get() const noexcept { return *v; }
};

}  // namespace detail

template <class K, class V>
struct MapEntry {
  MapEntry() = default;
  MapEntry(K k, V v) : key(std::move(k)), box(std::move(v)) {}

  V& value() noexcept { return box.get(); }
  const V& value() const noexcept { return box.get(); }

  K key{};
  detail::ValueBox<V> box{};
};

// Orders entries by key only, and transparently orders entries against bare
// keys (and, when Compare is itself transparent, against any probe type it
// accepts) so lookups never construct a value.
template <class K, class V, class Compare = std::less<K>>
struct MapEntryLess {
  using is_transparent = void;
  using Entry = MapEntry<K, V>;
  [[no_unique_address]] Compare cmp{};

  bool operator()(const Entry& a, const Entry& b) const {
    return cmp(a.key, b.key);
  }
  template <class Q>
    requires ProbeFor<Q, K, Compare>
  bool operator()(const Entry& a, const Q& b) const {
    return cmp(a.key, b);
  }
  template <class Q>
    requires ProbeFor<Q, K, Compare>
  bool operator()(const Q& a, const Entry& b) const {
    return cmp(a, b.key);
  }
};

template <class K, class V, class Compare = std::less<K>,
          class R = EpochReclaimer, class Stats = NullOpStats,
          class Alloc = mem::HeapAlloc>
class PnbMap
    : public OneShotQueries<PnbMap<K, V, Compare, R, Stats, Alloc>> {
 public:
  using key_type = K;
  using mapped_type = V;
  using Entry = MapEntry<K, V>;
  using Tree = PnbBst<Entry, MapEntryLess<K, V, Compare>, R, Stats, Alloc>;
  // Batch ingest shapes (src/ingest/, BatchIngestible in core/concepts.h).
  using bulk_item = std::pair<K, V>;
  using batch_op = ingest::BatchOp<K, V>;

  explicit PnbMap(R& reclaimer = R::shared(), Alloc alloc = Alloc())
      : tree_(reclaimer, alloc) {}

  // --- Point operations (non-blocking, linearizable) -----------------------

  // Inserts (k, v) if k is absent; returns false (leaving the existing
  // value untouched) otherwise.
  bool insert(K k, V v) {
    const bool added = tree_.insert(Entry(std::move(k), std::move(v)));
    if (added) entries_.add(kInserted);
    return added;
  }

  template <class Q = K>
    requires ProbeFor<Q, K, Compare>
  bool erase(const Q& k) {
    const bool removed = tree_.erase(k);
    if (removed) entries_.add(kErased);
    return removed;
  }

  template <class Q = K>
    requires ProbeFor<Q, K, Compare>
  bool contains(const Q& k) {
    return tree_.contains(k);
  }

  // The value stored under k, if any. Linearizable.
  template <class Q = K>
    requires ProbeFor<Q, K, Compare>
  std::optional<V> get(const Q& k) {
    auto entry = tree_.get(k);
    if (!entry) return std::nullopt;
    return std::move(entry->value());
  }

  // The value stored under k, or `fallback` when k is absent.
  template <class Q = K>
    requires ProbeFor<Q, K, Compare>
  V get_or(const Q& k, V fallback) {
    auto entry = tree_.get(k);
    return entry ? std::move(entry->value()) : std::move(fallback);
  }

  // Replaces the value under k by erase+insert. NOT atomic: a concurrent
  // reader may observe the key briefly absent. Returns true if a previous
  // mapping existed.
  bool assign(const K& k, const V& v) {
    const bool existed = erase(k);
    insert(k, v);
    return existed;
  }

  // Maintained entry count, O(1) and phase-free: successful inserts
  // (bulk_load included) minus successful erases. Exact when quiescent;
  // approximate under concurrent writes (each bump trails its update).
  std::size_t entry_count() const noexcept {
    const std::uint64_t erased = entries_.value(kErased);
    const std::uint64_t inserted = entries_.value(kInserted);
    return inserted > erased ? static_cast<std::size_t>(inserted - erased)
                             : 0;
  }

  // --- Batch ingest (src/ingest/ engine) -----------------------------------

  // Parallel sorted bulk construction from (key, value) pairs. Duplicate
  // keys keep the LAST pair (batch order semantics). Same single-writer
  // precondition as PnbBst::bulk_load: fresh, empty, still-private map.
  std::size_t bulk_load(std::vector<bulk_item> items,
                        const scan::ParallelScanOptions& opts = {}) {
    std::vector<Entry> entries;
    entries.reserve(items.size());
    for (bulk_item& it : items) {
      entries.emplace_back(std::move(it.first), std::move(it.second));
    }
    const std::size_t loaded = tree_.bulk_load(std::move(entries), opts);
    entries_.add(kInserted, loaded);
    return loaded;
  }

  // Batched inserts/erases against the live map; each op takes the normal
  // lock-free path (insert keeps insert-if-absent semantics). Last op per
  // key wins within the batch; the batch as a whole is not atomic.
  ingest::BatchResult apply_batch(std::vector<batch_op> ops,
                                  const scan::ParallelScanOptions& opts = {}) {
    ingest::normalize_batch(ops, [cmp = Compare{}](const K& a, const K& b) {
      return cmp(a, b);
    });
    return ingest::apply_runs(*this, ops, opts);
  }

  // apply_runs' overlapped descents, probing the tree by key
  // (PnbBst::prefetch_paths).
  void prefetch_paths(std::span<const batch_op> ops) {
    tree_.prefetch_paths(ops);
  }

  // --- Snapshots -----------------------------------------------------------

  // Snapshot of the map at one phase; mirrors PnbBst::Snapshot. Holds only
  // an epoch pin, for its lifetime — destroy promptly.
  class Snapshot : public RangeQueries<Snapshot, std::pair<K, V>> {
   public:
    std::uint64_t phase() const { return snap_.phase(); }

    template <class Q = K>
      requires ProbeFor<Q, K, Compare>
    bool contains(const Q& k) const {
      return snap_.contains(k);
    }

    template <class Q = K>
      requires ProbeFor<Q, K, Compare>
    std::optional<V> get(const Q& k) const {
      auto entry = snap_.get(k);
      if (!entry) return std::nullopt;
      return std::move(entry->value());
    }

    std::size_t size() const { return snap_.size(); }

    // vis(key, value) returns void (visit all) or bool (false stops).
    // range_scan, range_count, range_first and parallel_range_count are
    // folds over it; the scans collect (key, value) pairs (RangeQueries,
    // core/one_shot_queries.h). An order-free visitor (a count) takes the
    // entry as it is, so it goes to the tree unwrapped, to its windowed walk.
    template <class QLo = K, class QHi = K, class Visitor>
      requires ProbeFor<QLo, K, Compare> && ProbeFor<QHi, K, Compare>
    void range_visit(const QLo& lo, const QHi& hi, Visitor&& vis) const {
      if constexpr (kOrderFreeVisitor<Visitor>) {
        snap_.range_visit(lo, hi, vis);
      } else {
        snap_.range_visit(lo, hi, [&vis](const Entry& e) -> decltype(auto) {
          return vis(e.key, e.value());
        });
      }
    }

    // The tree snapshot's pin (PnbBst::Snapshot::pin).
    auto pin() const { return snap_.pin(); }

    template <class Q = K>
      requires ProbeFor<Q, K, Compare>
    std::optional<std::pair<K, V>> successor(const Q& k) const {
      return to_pair(snap_.successor(k));
    }
    template <class Q = K>
      requires ProbeFor<Q, K, Compare>
    std::optional<std::pair<K, V>> predecessor(const Q& k) const {
      return to_pair(snap_.predecessor(k));
    }
    std::optional<std::pair<K, V>> min() const { return to_pair(snap_.min()); }
    std::optional<std::pair<K, V>> max() const { return to_pair(snap_.max()); }

   private:
    friend class PnbMap;
    explicit Snapshot(typename Tree::Snapshot&& snap)
        : snap_(std::move(snap)) {}
    typename Tree::Snapshot snap_;
  };

  Snapshot snapshot() { return Snapshot(tree_.snapshot()); }

  // The one-shot queries come from OneShotQueries, as on PnbBst (visitors
  // take (key, value)); a query over [lo, hi] runs on the whole-map
  // snapshot, since one phase covers every key.
  template <class QLo, class QHi>
  Snapshot snapshot(const QLo&, const QHi&) {
    return snapshot();
  }

  Stats& stats() noexcept { return tree_.stats(); }
  Tree& underlying() noexcept { return tree_; }

 private:
  static std::optional<std::pair<K, V>> to_pair(std::optional<Entry>&& e) {
    if (!e) return std::nullopt;
    return std::make_pair(std::move(e->key), std::move(e->value()));
  }

  static constexpr std::size_t kInserted = 0;  // entries_ cells
  static constexpr std::size_t kErased = 1;

  Tree tree_;
  StripedCounters<2> entries_;
};

// The map models the concept surface it defines (core/concepts.h); checked
// here so any signature drift fails at the definition, not in a user TU.
static_assert(OrderedMap<PnbMap<long, long>, long, long>);
static_assert(MapScannable<PnbMap<long, long>, long, long>);
static_assert(ParallelScannable<PnbMap<long, long>, long>);
static_assert(PhasedSnapshottable<PnbMap<long, long>>);
static_assert(BatchIngestible<PnbMap<long, long>>);

}  // namespace pnbbst

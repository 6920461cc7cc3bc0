// The two CRTP bases every range query is written in, once.
//
// In the paper every range query is one RangeScan: bump Counter to open a
// phase, then run ScanHelper over T_seq (Fig. 4), visiting the keys of
// [lo, hi] in order. Every other scan answer is a fold over that visit.
//
// RangeQueries<Derived, Elem> writes those folds: range_scan, range_count
// and range_first over Derived's own range_visit(lo, hi, vis). The three
// Snapshot classes and the baselines (LockedBst, CowBst, NbBst, LfSkipList)
// inherit it and write only range_visit. parallel_range_count is the same
// count split into key chunks; it is offered where Derived is a snapshot
// (a const range_visit and a pin()) and the bounds are integral.
//
// OneShotQueries<Derived> is the one-shot query policy: "a one-shot query
// is a fresh snapshot asked once". PnbBst, PnbMap and ShardedPnbMap
// inherit it and supply only snapshot() and snapshot(lo, hi), the snapshot
// a query over [lo, hi] runs on: the whole tree for PnbBst and PnbMap, only
// the shards in the span for ShardedPnbMap.
//
// A query the structure cannot answer drops out by SFINAE instead of
// failing hard: a bound that is no ProbeFor of the key, a structure
// without range_visit, a Snapshot without successor or min (ShardedPnbMap's
// has neither). Each return type names the call the body makes, through the
// defaulted parameter D so that the expression is not formed while Derived
// is still incomplete.
#pragma once

#include <concepts>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "scan/parallel_scan.h"

namespace pnbbst {

// Calls vis(args...) and says whether the walk goes on: a visitor returning
// void visits everything, one returning bool stops the walk with false.
// This is the early-stopping rule of every range_visit.
template <class Vis, class... Args>
bool visit_continues(Vis& vis, const Args&... args) {
  if constexpr (std::is_void_v<std::invoke_result_t<Vis&, const Args&...>>) {
    vis(args...);
    return true;
  } else {
    return static_cast<bool>(vis(args...));
  }
}

// Whether a visitor declares `static constexpr bool kOrderFree = true`: it
// takes the range's elements in any order and never stops a walk (it
// returns void). A walk may then visit the version tree out of key order,
// as PnbBst::scan_tree's window does, and a wrapper that only adapts the
// element's shape may hand such a visitor on unwrapped.
template <class Vis>
inline constexpr bool kOrderFreeVisitor =
    requires { requires std::remove_cvref_t<Vis>::kOrderFree; };

namespace detail {

// range_count's visitor, the one count fold (size() uses it too); a named
// type, so the return types below can spell the range_visit call a fold
// makes. A count does not depend on visit order.
struct CountVisitor {
  static constexpr bool kOrderFree = true;
  std::size_t* n;
  template <class... Args>
  void operator()(const Args&...) const {
    ++*n;
  }
};

// Result when an S can visit [lo, hi] with bounds of types Lo and Hi; no
// type otherwise, so the fold drops out.
template <class S, class Lo, class Hi, class Result>
using VisitFold = decltype(void(std::declval<S&>().range_visit(
                               std::declval<const Lo&>(),
                               std::declval<const Hi&>(),
                               std::declval<CountVisitor&>())),
                           Result());

}  // namespace detail

// Elem is what range_scan and range_first collect, one per visited element,
// built from the visitor's arguments: K for a set, std::pair<K, V> for a
// map. Each fold comes twice: const for the snapshots, whose range_visit is
// const, and mutable for the baselines, whose scans are not.
template <class Derived, class Elem>
class RangeQueries {
 public:
  // The elements of [lo, hi] in ascending order.
  template <class Lo, class Hi, class D = Derived>
  auto range_scan(const Lo& lo, const Hi& hi)
      -> detail::VisitFold<D, Lo, Hi, std::vector<Elem>> {
    return scan_fold(self(), lo, hi);
  }
  template <class Lo, class Hi, class D = Derived>
  auto range_scan(const Lo& lo, const Hi& hi) const
      -> detail::VisitFold<const D, Lo, Hi, std::vector<Elem>> {
    return scan_fold(self(), lo, hi);
  }

  template <class Lo, class Hi, class D = Derived>
  auto range_count(const Lo& lo, const Hi& hi)
      -> detail::VisitFold<D, Lo, Hi, std::size_t> {
    return count_fold(self(), lo, hi);
  }
  template <class Lo, class Hi, class D = Derived>
  auto range_count(const Lo& lo, const Hi& hi) const
      -> detail::VisitFold<const D, Lo, Hi, std::size_t> {
    return count_fold(self(), lo, hi);
  }

  // First (at most) n elements of [lo, hi] in ascending order. The visit
  // stops at the n-th, so this costs O(n + depth), not the whole range.
  template <class Lo, class Hi, class D = Derived>
  auto range_first(const Lo& lo, const Hi& hi, std::size_t n)
      -> detail::VisitFold<D, Lo, Hi, std::vector<Elem>> {
    return first_fold(self(), lo, hi, n);
  }
  template <class Lo, class Hi, class D = Derived>
  auto range_first(const Lo& lo, const Hi& hi, std::size_t n) const
      -> detail::VisitFold<const D, Lo, Hi, std::vector<Elem>> {
    return first_fold(self(), lo, hi, n);
  }

  // range_count's result, counted by several threads (src/scan/ engine):
  // plan_chunks tiles [lo, hi] into disjoint key chunks, each chunk is
  // range_counted on this same snapshot, and the parts are summed. Every
  // chunk reads the same frozen phases, so the sum is exactly the
  // sequential count. Each task holds its own epoch pin (self().pin()): a
  // helping scan may retire nodes (docs/DESIGN.md §7.1). Chunk bounds are
  // key arithmetic, so the bounds must be integral.
  template <std::integral Lo, std::integral Hi, class D = Derived,
            class B = std::common_type_t<Lo, Hi>>
    requires requires(const D& d) { d.pin(); }
  auto parallel_range_count(const Lo& lo, const Hi& hi,
                            const scan::ParallelScanOptions& opts = {}) const
      -> detail::VisitFold<const D, B, B, std::size_t> {
    const auto chunks =
        scan::plan_chunks(opts, static_cast<B>(lo), static_cast<B>(hi));
    std::vector<std::size_t> parts(chunks.size(), 0);
    scan::run_tasks(opts, chunks.size(), [&](std::size_t i) {
      auto guard = self().pin();
      parts[i] = count_fold(self(), chunks[i].first, chunks[i].second);
    });
    std::size_t total = 0;
    for (const std::size_t n : parts) total += n;
    return total;
  }

 private:
  template <class S, class Lo, class Hi>
  static std::vector<Elem> scan_fold(S& s, const Lo& lo, const Hi& hi) {
    std::vector<Elem> out;
    s.range_visit(lo, hi, [&out](const auto&... e) { out.emplace_back(e...); });
    return out;
  }

  template <class S, class Lo, class Hi>
  static std::size_t count_fold(S& s, const Lo& lo, const Hi& hi) {
    std::size_t n = 0;
    detail::CountVisitor vis{&n};
    s.range_visit(lo, hi, vis);
    return n;
  }

  template <class S, class Lo, class Hi>
  static std::vector<Elem> first_fold(S& s, const Lo& lo, const Hi& hi,
                                      std::size_t n) {
    std::vector<Elem> out;
    if (n == 0) return out;
    s.range_visit(lo, hi, [&out, n](const auto&... e) {
      out.emplace_back(e...);
      return out.size() < n;
    });
    return out;
  }

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

template <class Derived>
class OneShotQueries {
 public:
  // Visits [lo, hi] in ascending order. A bool visitor that returns false
  // has seen an ascending prefix of the range at the scan's phase, so
  // pagination ("first n keys >= lo") stays linearizable.
  template <class Lo, class Hi, class Visitor, class D = Derived>
  auto range_visit(const Lo& lo, const Hi& hi, Visitor&& vis)
      -> decltype(std::declval<D&>().snapshot(lo, hi).range_visit(lo, hi,
                                                                  vis)) {
    return self().snapshot(lo, hi).range_visit(lo, hi, vis);
  }

  template <class Lo, class Hi, class D = Derived>
  auto range_scan(const Lo& lo, const Hi& hi)
      -> decltype(std::declval<D&>().snapshot(lo, hi).range_scan(lo, hi)) {
    return self().snapshot(lo, hi).range_scan(lo, hi);
  }

  template <class Lo, class Hi, class D = Derived>
  auto range_count(const Lo& lo, const Hi& hi)
      -> decltype(std::declval<D&>().snapshot(lo, hi).range_count(lo, hi)) {
    return self().snapshot(lo, hi).range_count(lo, hi);
  }

  // First (at most) n elements of [lo, hi] in ascending order.
  template <class Lo, class Hi, class D = Derived>
  auto range_first(const Lo& lo, const Hi& hi, std::size_t n)
      -> decltype(std::declval<D&>().snapshot(lo, hi).range_first(lo, hi,
                                                                  n)) {
    return self().snapshot(lo, hi).range_first(lo, hi, n);
  }

  // range_count's result, counted by several threads from the one snapshot
  // (src/scan/ engine; integral keys only).
  template <class Lo, class Hi, class D = Derived>
  auto parallel_range_count(const Lo& lo, const Hi& hi,
                            const scan::ParallelScanOptions& opts = {})
      -> decltype(std::declval<D&>().snapshot(lo, hi).parallel_range_count(
          lo, hi, opts)) {
    return self().snapshot(lo, hi).parallel_range_count(lo, hi, opts);
  }

  // Full linearizable census: a whole-structure scan, O(n).
  std::size_t size() { return self().snapshot().size(); }
  bool empty() { return size() == 0; }

  // Smallest element >= k / largest element <= k, or nullopt.
  template <class Q, class D = Derived>
  auto successor(const Q& k)
      -> decltype(std::declval<D&>().snapshot().successor(k)) {
    return self().snapshot().successor(k);
  }
  template <class Q, class D = Derived>
  auto predecessor(const Q& k)
      -> decltype(std::declval<D&>().snapshot().predecessor(k)) {
    return self().snapshot().predecessor(k);
  }

  // Smallest / largest element, or nullopt when empty.
  template <class D = Derived>
  auto min() -> decltype(std::declval<D&>().snapshot().min()) {
    return self().snapshot().min();
  }
  template <class D = Derived>
  auto max() -> decltype(std::declval<D&>().snapshot().max()) {
    return self().snapshot().max();
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

}  // namespace pnbbst

// OneShotQueries — the one place the one-shot query policy is written.
//
// In the paper every range query is one RangeScan: bump Counter to open a
// phase, then run ScanHelper over T_seq (Fig. 4). Here that reads "a
// one-shot query is a fresh snapshot asked once". PnbBst, PnbMap,
// ShardedPnbMap and SetAdapter<PnbBst> inherit this CRTP base and supply
// only snapshot() and snapshot(lo, hi), the snapshot a query over [lo, hi]
// runs on: the whole tree for PnbBst and PnbMap, only the shards in the
// span for ShardedPnbMap.
//
// A query the container's Snapshot lacks (ShardedPnbMap's has no successor
// or min) drops out by SFINAE: each return type names the call the body
// makes, through the defaulted parameter D so that the expression is not
// formed while Derived is still incomplete.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

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

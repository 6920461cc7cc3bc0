// C++20 concepts for the public container API.
//
// Every structure in this repo — the paper's PNB-BST, the baselines, the
// PnbMap key/value layer and the sharded front-end — is written against one
// of these surfaces and answers it itself: benches, tests and tools drive
// the structures directly. Each structure's header static_asserts the
// surfaces it models, so an API drift is a compile error at the definition
// instead of a duck-typing surprise deep inside a bench. The range answers
// (range_scan / range_count / range_first / parallel_range_count) are folds
// over range_visit, written once in RangeQueries (core/one_shot_queries.h).
//
//   OrderedSet<S, K>        point ops: insert / erase / contains
//   Scannable<S, K>         linear range queries: range_count / range_scan
//   PrefixScannable<S, K>   visits: range_visit, early-terminating with a
//                           bool visitor
//   ParallelScannable<S, K> multi-threaded snapshot counts (src/scan/)
//   BatchIngestible<S>      batch ingest (src/ingest/): bulk_load on a
//                           fresh/private structure, apply_batch on a live
//                           one
//   OrderedMap<M, K, V>     key/value point ops incl. get / get_or / assign
//   MapScannable<M, K, V>   key/value range queries: range_visit & friends
//   Snapshottable<S>        snapshot() handle with size() (+ phase() where
//                           the structure is phase-versioned, see
//                           PhasedSnapshottable)
#pragma once

// Same fail-fast guard as reclaim/reclaimer.h: one readable error instead
// of a concept-syntax cascade when the compiler is not in C++20 mode.
#if !defined(__cpp_concepts) || __cpp_concepts < 201707L
#error "PNB-BST requires C++20 (concepts): compile with -std=c++20 or newer"
#endif

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace pnbbst {

// Point-operation surface of an ordered set of K. All three return whether
// the operation changed / observed membership.
template <class S, class K>
concept OrderedSet = requires(S s, const K& k) {
  { s.insert(k) } -> std::same_as<bool>;
  { s.erase(k) } -> std::same_as<bool>;
  { s.contains(k) } -> std::same_as<bool>;
};

// Range-query surface of an ordered set: counts and materialized ascending
// scans over the inclusive key interval [lo, hi].
template <class S, class K>
concept Scannable = requires(S s, const K& lo, const K& hi) {
  { s.range_count(lo, hi) } -> std::same_as<std::size_t>;
  { s.range_scan(lo, hi) } -> std::same_as<std::vector<K>>;
};

// Visits in ascending order: a void visitor sees the whole range, a bool
// visitor returns false to stop, and the visited keys are then an
// ascending prefix of the range.
template <class S, class K>
concept PrefixScannable =
    Scannable<S, K> &&
    requires(S s, const K& lo, const K& hi, void (*vis)(const K&),
             bool (*pred)(const K&)) {
      s.range_visit(lo, hi, vis);
      s.range_visit(lo, hi, pred);
    };

// Multi-threaded snapshot counts (the src/scan/ engine): the same count as
// the sequential scan surface, produced by counting key chunks of one
// snapshot across a worker pool. The unsigned argument is the scan-thread
// count; structures take a scan::ParallelScanOptions that converts
// implicitly from it. Contents come from snapshot().range_scan.
template <class S, class K>
concept ParallelScannable =
    requires(S s, const K& lo, const K& hi, unsigned n) {
      { s.range_count(lo, hi) } -> std::same_as<std::size_t>;
      { s.parallel_range_count(lo, hi, n) } -> std::same_as<std::size_t>;
    };

// Batch ingest surface (the src/ingest/ engine). `bulk_item` is what
// bulk_load consumes (K for sets, std::pair<K, V> for maps); `batch_op` is
// an ingest::BatchOp over the same shape. bulk_load builds a balanced tree
// in parallel and REQUIRES a fresh, still-private structure (single-writer
// precondition, documented in ingest/bulk_build.h); apply_batch is safe
// against live structures — each op takes the ordinary lock-free path. The
// result shape is checked structurally (counters convertible to size_t) so
// this header stays free of ingest/ includes.
template <class S>
concept BatchIngestible =
    requires(S s, std::vector<typename S::bulk_item> items,
             std::vector<typename S::batch_op> ops) {
      typename S::bulk_item;
      typename S::batch_op;
      { s.bulk_load(std::move(items)) } -> std::same_as<std::size_t>;
      { s.apply_batch(std::move(ops)).applied }
          -> std::convertible_to<std::size_t>;
      { s.apply_batch(std::move(ops)).inserted }
          -> std::convertible_to<std::size_t>;
      { s.apply_batch(std::move(ops)).erased }
          -> std::convertible_to<std::size_t>;
    };

// Point-operation surface of an ordered map from K to V.
template <class M, class K, class V>
concept OrderedMap = requires(M m, const K& k, const V& v) {
  { m.insert(k, v) } -> std::same_as<bool>;
  { m.erase(k) } -> std::same_as<bool>;
  { m.contains(k) } -> std::same_as<bool>;
  { m.get(k) } -> std::same_as<std::optional<V>>;
  { m.get_or(k, v) } -> std::same_as<V>;
  { m.assign(k, v) } -> std::same_as<bool>;
  { m.size() } -> std::same_as<std::size_t>;
  { m.empty() } -> std::same_as<bool>;
};

// Range-query surface of an ordered map: visitation yields (key, value)
// (a bool visitor stops with false, as for PrefixScannable), materialized
// scans yield pairs in ascending key order.
template <class M, class K, class V>
concept MapScannable =
    requires(M m, const K& lo, const K& hi, void (*vis)(const K&, const V&),
             bool (*pred)(const K&, const V&)) {
      { m.range_count(lo, hi) } -> std::same_as<std::size_t>;
      { m.range_scan(lo, hi) } -> std::same_as<std::vector<std::pair<K, V>>>;
      m.range_visit(lo, hi, vis);
      m.range_visit(lo, hi, pred);
    };

// A structure whose state at one instant can be captured as a first-class
// handle supporting mutually consistent queries.
template <class S>
concept Snapshottable = requires(S s) {
  typename S::Snapshot;
  { s.snapshot() } -> std::same_as<typename S::Snapshot>;
  { s.snapshot().size() } -> std::convertible_to<std::size_t>;
};

// Snapshottable whose handle exposes the phase (version number) it froze —
// the PNB-BST multi-version substrate.
template <class S>
concept PhasedSnapshottable =
    Snapshottable<S> && requires(S s) {
      { s.snapshot().phase() } -> std::convertible_to<std::uint64_t>;
    };

}  // namespace pnbbst

// Concurrent-safe batched updates against a *live* structure.
//
// apply_batch (surfaced on PnbBst / PnbMap / ShardedPnbMap via the
// BatchIngestible concept; the baselines have no batch path) takes a vector
// of insert/erase ops and:
//
//   1. normalizes it — stable sort by key, keep the LAST op per key, so the
//      batch behaves as if its ops were applied in order with later ops
//      overriding earlier ones on the same key;
//   2. tiles the sorted vector into contiguous index runs
//      (scan::plan_tasks at the kIngestGrain floor, then
//      scan::partition_range over indices — the same planning and tiling
//      the parallel scan engine uses over key space);
//   3. applies each run on the scan::ScanExecutor, caller participating.
//
// LINEARIZABILITY: every op still goes through the structure's ordinary
// lock-free update path (one CAS-protocol insert/erase per op), so each op
// is individually linearizable exactly as before — batching changes
// nothing about the structure's guarantees. What the batch buys is (a)
// locality: each run walks keys in ascending order, so consecutive ops
// share upper-tree paths and caches; (b) overlapped descents: each run
// goes in groups of kDescentGroup ops, and before a group's ops run, one
// read-only lockstep descent of all the group's keys prefetches their
// paths (the target's prefetch_paths), so the group's cache misses
// overlap instead of each op paying its own chain of dependent misses
// (group prefetching: Chen, Ailamaki, Gibbons & Mowry, ICDE 2004); and
// (c) parallel issue across runs.
// The batch AS A WHOLE is not atomic: a concurrent reader can observe any
// interleaving of the batch's ops with other traffic. Ops on the same key
// are deduplicated up front (keep-last), so no intra-batch ordering races
// exist by construction: one op per key, applied exactly once.
//
// The returned BatchResult counts ops that changed the structure —
// `inserted` inserts that added a key, `erased` erases that removed one —
// plus `applied`, the op count actually issued after dedup.
//
// ANTI-PATTERN — cold loads: do NOT build a tree from scratch with one big
// insert batch. The normalizer sorts the ops, and sorted insertion into an
// empty unbalanced tree degenerates it to Θ(n) depth (quadratic total
// work; Tab.E9's old sorted-insert row measured exactly this). apply_batch
// is for bursts against an ESTABLISHED tree, whose shape bounds the damage
// — new keys splice between existing leaves at the established depth. Cold
// loads belong to bulk_load (bulk_build.h), which is balanced by
// construction.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "ingest/bulk_build.h"
#include "scan/parallel_scan.h"
#include "scan/partition.h"

namespace pnbbst::ingest {

enum class BatchOpKind : std::uint8_t { kInsert, kErase };

// One batched operation. The primary template carries a value payload (map
// batches); the V = void specialization is the set shape. Aggregate layout
// so callers can brace-init; the factories read better in application code.
template <class K, class V = void>
struct BatchOp {
  K key{};
  V value{};
  BatchOpKind kind = BatchOpKind::kInsert;

  static BatchOp insert(K k, V v) {
    return BatchOp{std::move(k), std::move(v), BatchOpKind::kInsert};
  }
  // Erase carries no payload; the value member stays default-constructed.
  static BatchOp erase(K k) {
    return BatchOp{std::move(k), V{}, BatchOpKind::kErase};
  }
};

template <class K>
struct BatchOp<K, void> {
  K key{};
  BatchOpKind kind = BatchOpKind::kInsert;

  static BatchOp insert(K k) {
    return BatchOp{std::move(k), BatchOpKind::kInsert};
  }
  static BatchOp erase(K k) {
    return BatchOp{std::move(k), BatchOpKind::kErase};
  }
};

struct BatchResult {
  std::size_t applied = 0;   // ops issued after keep-last dedup
  std::size_t inserted = 0;  // inserts that added a key
  std::size_t erased = 0;    // erases that removed a key
  // Ops NOT applied because the batch was shed (retired-generation memory
  // above the shed watermark — ingest/admission.h).
  // A deferred batch left the structure untouched; retry it once the
  // retired-bytes gauge falls.
  std::size_t deferred = 0;

  std::size_t changed() const noexcept { return inserted + erased; }
  bool admitted() const noexcept { return deferred == 0; }

  BatchResult& operator+=(const BatchResult& o) noexcept {
    applied += o.applied;
    inserted += o.inserted;
    erased += o.erased;
    deferred += o.deferred;
    return *this;
  }
};

// Stable-sorts ops by key and keeps the last op per key (batch order
// semantics: the final op on a key decides). `key_less` orders keys.
template <class Op, class KeyLess>
void normalize_batch(std::vector<Op>& ops, KeyLess key_less) {
  sort_unique_last(ops, [&key_less](const Op& a, const Op& b) {
    return key_less(a.key, b.key);
  });
}

// Applies one op through target's ordinary insert/erase path (moving out
// of the op's payload), counts a change in `r`, and returns the op's ack.
// The one dispatch on op.kind: batches, ledger replay and the sharded
// map's single-key writes all go through it.
template <class K, class V, class Target>
bool apply_op(Target& target, BatchOp<K, V>& op, BatchResult& r) {
  if (op.kind == BatchOpKind::kErase) {
    const bool hit = target.erase(op.key);
    r.erased += hit;
    return hit;
  }
  bool hit;
  if constexpr (std::is_void_v<V>) {
    hit = target.insert(std::move(op.key));
  } else {
    hit = target.insert(std::move(op.key), std::move(op.value));
  }
  r.inserted += hit;
  return hit;
}

// Ops per lockstep descent. A group's misses overlap only while its keys
// are in flight together, so the gain grows with the group and then
// flattens: on a 1M-key tree with random keys, the walk cut a batch's time
// to 0.45x of no walk with groups of 8, 0.42x with 16 and 0.41x with 32.
inline constexpr std::size_t kDescentGroup = 16;

// Applies a normalized (sorted, one-op-per-key) batch to `target` in
// contiguous index runs fanned across the executor. Each run goes in
// groups of kDescentGroup ops: target.prefetch_paths warms the group's
// search paths, then each op goes through apply_op. Runs execute
// concurrently, so target's insert/erase must be safe to call
// concurrently (the lock-free paths are).
template <class Target, class Op>
BatchResult apply_runs(Target& target, std::vector<Op>& ops,
                       const scan::ParallelScanOptions& opts) {
  BatchResult total;
  if (ops.empty()) return total;
  const std::size_t want =
      scan::plan_tasks(opts, ops.size(), scan::kIngestGrain);
  const auto runs =
      scan::partition_range<std::size_t>(0, ops.size() - 1, want);
  std::vector<BatchResult> parts(runs.size());
  scan::run_tasks(opts, runs.size(), [&](std::size_t r) {
    BatchResult local;
    const auto [first, last] = runs[r];
    for (std::size_t g = first; g <= last; g += kDescentGroup) {
      const std::size_t end = std::min(g + kDescentGroup, last + 1);
      target.prefetch_paths(std::span<const Op>(ops.data() + g, end - g));
      for (std::size_t i = g; i < end; ++i) apply_op(target, ops[i], local);
    }
    local.applied = last - first + 1;
    parts[r] = local;
  });
  for (const BatchResult& p : parts) total += p;
  return total;
}

// Applies recorded ops IN ORDER, without normalization — the replay
// primitive for migration write-intent ledgers (shard/sharded_map.h).
//
// Why keep-last dedup would be WRONG here: insert is insert-if-absent, so
// the op that takes effect on a key is the FIRST insert while the key is
// absent, not the last. A ledger [insert(k,v1), insert(k,v2)] acknowledged
// v1 on the source structure; keep-last replay would install v2 in the
// rebuilt one. In-order replay reproduces the recorded outcome exactly;
// `target` is a fresh still-private or single-writer structure, so plain
// sequential application is both correct and cheap (ledgers are small —
// they only hold ops accepted during one migration window).
template <class K, class V, class Target>
BatchResult apply_ordered(Target& target, std::vector<BatchOp<K, V>>& ops) {
  BatchResult r;
  for (BatchOp<K, V>& op : ops) apply_op(target, op, r);
  r.applied = ops.size();
  return r;
}

}  // namespace pnbbst::ingest

// Parallel scan engine: fan-out options, task planning, and the fan-out
// driver. Every parallel path in the repo — chunked counts, bulk_load,
// apply_batch, reshard — is described by the one
// ParallelScanOptions{threads, executor} and split by the one plan_tasks.
//
// The engine turns one wait-free snapshot scan into many independent tasks
// executed on a ScanExecutor: plan_chunks() tiles the inclusive probe
// interval [lo, hi] into disjoint ascending key-range chunks (see
// partition.h), and every chunk scans the SAME snapshot, so the summed
// count is exactly the sequential count at that snapshot — parallelism
// does not weaken linearizability (docs/DESIGN.md §7 has the argument).
// That count is written once, as RangeQueries::parallel_range_count
// (core/one_shot_queries.h); on a ShardedPnbMap snapshot each chunk walks
// only the shards it spans, and the per-shard snapshots were all taken
// before any task runs, so the cross-shard contract is unchanged.
//
// run_tasks() is the single fan-out primitive. The calling thread always
// participates: it claims task indices from the same atomic counter the
// pool workers do, so a batch finishes even when the executor is width 0,
// saturated by other batches, or smaller than the requested thread count —
// there is no configuration that deadlocks, only ones that serialize.
//
// Thread counts: ParallelScanOptions::threads == 0 resolves to the
// executor's width; an explicit count caps the helpers submitted (threads-1
// helpers + the caller). plan_tasks() oversplits by kOversplit tasks per
// thread so early finishers steal remaining work, smoothing key-density
// imbalance; ingest passes kIngestGrain so a task never gets fewer items
// than are worth a task of their own.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "scan/executor.h"
#include "scan/partition.h"

namespace pnbbst::scan {

// Tasks planned per resolved thread: the oversplit that lets early
// finishers steal the remaining work.
inline constexpr std::size_t kOversplit = 4;

// Ingest grain: the fewest items (ops to apply, leaves to build) worth a
// task of their own. Batch application has per-op cost (a lock-free update
// each), so tiny runs would drown in fan-out overhead; the floor keeps
// small batches sequential and large ones evenly tiled.
inline constexpr std::size_t kIngestGrain = 1024;

struct ParallelScanOptions {
  unsigned threads = 0;              // 0 -> resolve to executor width
  ScanExecutor* executor = nullptr;  // null -> ScanExecutor::shared()

  // Implicit by design: the ParallelScannable concept (core/concepts.h)
  // and callers like bulk_load(items, 8) pass a bare thread count, which
  // converts through here.
  ParallelScanOptions(unsigned t = 0) noexcept : threads(t) {}
  ParallelScanOptions(unsigned t, ScanExecutor& ex) noexcept
      : threads(t), executor(&ex) {}

  ScanExecutor& resolve_executor() const {
    return executor != nullptr ? *executor : ScanExecutor::shared();
  }

  // Total scan threads including the caller; always >= 1. The default uses
  // the pool width as the machine-level parallelism target (the caller
  // participates, so one worker simply stays idle for the batch).
  unsigned resolve_threads() const {
    if (threads != 0) return threads;
    const unsigned w = resolve_executor().width();
    return w == 0 ? 1 : w;
  }
};

// Number of tasks to split `items` work items into under `opts`: none for
// no work, one when the fan-out is sequential, otherwise kOversplit per
// resolved thread — but never so many that a task gets fewer than `grain`
// items.
inline std::size_t plan_tasks(const ParallelScanOptions& opts,
                              std::uint64_t items, std::uint64_t grain = 1) {
  if (items == 0) return 0;
  const unsigned threads = opts.resolve_threads();
  if (threads <= 1) return 1;
  const std::uint64_t by_grain =
      std::max<std::uint64_t>(1, items / std::max<std::uint64_t>(1, grain));
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(by_grain, threads * kOversplit));
}

// Chunk plan for the inclusive probe interval [lo, hi]: plan_tasks over its
// keys, tiled by partition_range. Chunks are disjoint, ascending, and tile
// [lo, hi] exactly.
template <std::integral B>
std::vector<std::pair<B, B>> plan_chunks(const ParallelScanOptions& opts,
                                         B lo, B hi) {
  if (hi < lo) return {};
  // Key count hi - lo + 1, saturated: the full 64-bit domain has 2^64 keys.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t keys = span == UINT64_MAX ? span : span + 1;
  return partition_range(lo, hi, plan_tasks(opts, keys));
}

// Executes fn(i) exactly once for every i in [0, n), using at most
// resolve_threads() threads (caller included), and returns when all n calls
// have completed. fn must not throw. Results written by fn happen-before
// the return (release increment of the finish counter / acquire read by the
// waiter).
template <class Fn>
void run_tasks(const ParallelScanOptions& opts, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const unsigned threads = static_cast<unsigned>(
      std::min<std::size_t>(opts.resolve_threads(), n));
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Batch {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    std::size_t n = 0;
    std::function<void(std::size_t)> fn;
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  // The std::function copy may hold references into the caller's frame.
  // That is safe: all n index claims < n happen before `finished` reaches
  // n, and the caller does not return before then — a helper that runs
  // later can only claim an index >= n and exits without touching fn.
  batch->fn = std::forward<Fn>(fn);

  auto drive = [batch] {
    for (;;) {
      const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->n) return;
      batch->fn(i);
      if (batch->finished.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          batch->n) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        batch->cv.notify_all();
      }
    }
  };

  ScanExecutor& ex = opts.resolve_executor();
  for (unsigned t = 1; t < threads; ++t) ex.submit(drive);
  drive();  // caller participates: completion never depends on the pool

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->cv.wait(lock, [&batch] {
    return batch->finished.load(std::memory_order_acquire) == batch->n;
  });
}

}  // namespace pnbbst::scan

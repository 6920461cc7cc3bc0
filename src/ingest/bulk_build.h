// Parallel sorted bulk construction of a PNB-BST.
//
// bulk_load (surfaced on PnbBst / PnbMap / ShardedPnbMap via the
// BatchIngestible concept; the baselines have no bulk constructor) turns a
// key vector into a perfectly balanced phase-0 tree:
//
//   1. the input is sorted and de-duplicated (stable sort + keep-last, so a
//      map batch with repeated keys keeps the final value — batch order
//      semantics);
//   2. a *spine* of internal nodes is built sequentially by the same
//      midpoint recursion the sequential bulk constructor uses, stopping
//      once a subrange fits the grain;
//   3. each leftover subrange becomes one task that builds its balanced
//      subtree independently and stores it into the spine slot reserved for
//      it; tasks fan out on the scan::ScanExecutor with the caller
//      participating (scan/parallel_scan.h), so there is no pool
//      configuration that deadlocks.
//
// The spine recursion and the per-task recursion split ranges identically,
// so the result is bit-identical in shape and contents to the sequential
// build of the same input — the differential tests in tests/test_ingest.cpp
// rely on this.
//
// SINGLE-WRITER PRECONDITION: bulk construction writes child pointers with
// plain (relaxed) stores and attaches the finished subtree without any
// freeze/help protocol. It is only sound on a tree no other thread can
// reach: a freshly constructed, still-private instance (a fresh shard
// replacement in ShardedPnbMap::reshard, a bench/bootstrap tree). Publish
// the tree to other threads only after bulk_load returns; the publishing
// edge (thread creation, or the atomic shard-pointer swap in
// src/shard/sharded_map.h) makes the plain stores visible. For concurrent
// ingest into a *live* tree use apply_batch (batch_apply.h) instead.
//
// TreeBuilder is a friend of PnbBst: it needs the node factories and the
// root pointer, but nothing here touches the update/freeze machinery — all
// built nodes carry seq 0, a null prev, and the dummy update word, exactly
// like the initial sentinel leaves.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "scan/parallel_scan.h"

namespace pnbbst::ingest {

// Stable-sorts `items` by `less` and keeps the LAST element of every run of
// equivalent items. Keep-last (not std::unique's keep-first) gives batches
// their documented "later entry wins" semantics for key/value payloads.
template <class T, class Less>
void sort_unique_last(std::vector<T>& items, Less less) {
  std::stable_sort(items.begin(), items.end(), less);
  std::size_t w = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Sorted, so items[i] and items[i+1] are equivalent iff neither is less.
    if (i + 1 < items.size() && !less(items[i], items[i + 1])) continue;
    if (w != i) items[w] = std::move(items[i]);
    ++w;
  }
  items.resize(w);
}

template <class Tree>
struct TreeBuilder {
  using Node = typename Tree::Node;
  using Internal = typename Tree::Internal;
  using EK = typename Tree::EK;

  // A spine slot waiting for the balanced subtree over leaves[lo, hi).
  struct SubtreeTask {
    std::atomic<Node*>* slot;
    std::size_t lo;
    std::size_t hi;
  };

  // Balanced leaf-oriented subtree over leaves[lo, hi); internal keys are
  // the minimum of their right subtree, per the BST property. Identical to
  // the recursion the sequential bulk constructor always used.
  static Node* build_range(Tree& t, const std::vector<EK>& leaves,
                           std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) return t.make_leaf(leaves[lo], 0, nullptr);
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    Internal* in = t.make_internal(leaves[mid], 0, nullptr);
    in->left.store(build_range(t, leaves, lo, mid), std::memory_order_relaxed);
    in->right.store(build_range(t, leaves, mid, hi),
                    std::memory_order_relaxed);
    return in;
  }

  // Builds the balanced tree over all of `leaves` (non-empty), fanning
  // subtree construction across the executor when the input spans more
  // than one ingest grain. Returns the root of the new subtree; every node
  // is phase 0.
  static Node* build(Tree& t, const std::vector<EK>& leaves,
                     const scan::ParallelScanOptions& opts) {
    const std::size_t n = leaves.size();
    const std::size_t runs = scan::plan_tasks(opts, n, scan::kIngestGrain);
    if (runs <= 1) return build_range(t, leaves, 0, n);
    // ceil so grain * runs >= n: the spine recursion bottoms out into at
    // most ~runs tasks of roughly equal size.
    const std::size_t grain = (n + runs - 1) / runs;
    std::vector<SubtreeTask> tasks;
    tasks.reserve(runs + 1);
    Node* root = build_spine(t, leaves, 0, n, grain, tasks);
    scan::run_tasks(opts, tasks.size(), [&](std::size_t i) {
      const SubtreeTask& task = tasks[i];
      // Arena-adjacency hint: a tree whose allocator can reserve
      // contiguous slot runs gets each subtree emitted into its worker's
      // own fresh slab region, so cold-loaded subtrees are cache-adjacent
      // by construction. Trees without the hook build exactly as before.
      if constexpr (requires { t.builder_reserve(task.hi - task.lo); }) {
        t.builder_reserve(task.hi - task.lo);
      }
      task.slot->store(build_range(t, leaves, task.lo, task.hi),
                       std::memory_order_relaxed);
    });
    return root;
  }

 private:
  // Same midpoint recursion as build_range, but subranges that fit the
  // grain become tasks instead of being built inline. Caller guarantees
  // hi - lo > grain >= 1, so this node is always internal.
  static Node* build_spine(Tree& t, const std::vector<EK>& leaves,
                           std::size_t lo, std::size_t hi, std::size_t grain,
                           std::vector<SubtreeTask>& tasks) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    Internal* in = t.make_internal(leaves[mid], 0, nullptr);
    if (mid - lo <= grain) {
      tasks.push_back(SubtreeTask{&in->left, lo, mid});
    } else {
      in->left.store(build_spine(t, leaves, lo, mid, grain, tasks),
                     std::memory_order_relaxed);
    }
    if (hi - mid <= grain) {
      tasks.push_back(SubtreeTask{&in->right, mid, hi});
    } else {
      in->right.store(build_spine(t, leaves, mid, hi, grain, tasks),
                      std::memory_order_relaxed);
    }
    return in;
  }
};

}  // namespace pnbbst::ingest

// Deterministic tests for the batch ingest engine (src/ingest/):
//
//  * sort_unique_last / normalize_batch semantics (keep-last dedup);
//  * the constant ingest grain: a batch fans out on the pool from two
//    grains (2 x scan::kIngestGrain ops) and never below one;
//  * bulk_load: differential vs sequential insert, tree validity, balance
//    (depth bound), shape identity with the sequential bulk constructor,
//    thread-count independence of the result;
//  * apply_batch: differential vs a last-op-wins model on PnbBst, PnbMap
//    and ShardedPnbMap, result counters, insert-if-absent semantics, and
//    batch sizes around the descent-group and grain boundaries;
//  * resharding: reshard preserves contents and rebalances, retired
//    generations reclaim automatically, pre-reshard snapshots stay valid;
//  * BatchIngestible concept coverage (positive and negative).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "common.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "core/validate.h"
#include "ingest/batch_apply.h"
#include "ingest/bulk_build.h"
#include "nbbst/nb_bst.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using ingest::BatchOp;
using ingest::BatchOpKind;
using scan::ParallelScanOptions;

// Shuffled 0..n-1 (Fisher–Yates with the repo PRNG).
std::vector<long> shuffled_keys(long n, std::uint64_t seed) {
  std::vector<long> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (long k = 0; k < n; ++k) keys.push_back(k);
  Xoshiro256 rng(seed);
  for (long i = n - 1; i > 0; --i) {
    std::swap(keys[static_cast<std::size_t>(i)],
              keys[rng.next_bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  return keys;
}

// Max leaf depth of the current version (quiescent).
template <class Tree>
std::size_t max_depth(Tree& tree) {
  using Node = typename Tree::Node;
  struct Frame {
    Node* node;
    std::size_t depth;
  };
  std::vector<Frame> stack{{tree.debug_root(), 0}};
  std::size_t deepest = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.node->is_leaf()) {
      deepest = std::max(deepest, f.depth);
      continue;
    }
    auto* in = as_internal(f.node);
    stack.push_back({in->left.load(std::memory_order_relaxed), f.depth + 1});
    stack.push_back({in->right.load(std::memory_order_relaxed), f.depth + 1});
  }
  return deepest;
}

// Structural equality of two quiescent current-version trees: same shape,
// same keys (including sentinel placement).
template <class Tree>
bool same_shape(typename Tree::Node* a, typename Tree::Node* b) {
  ExtKeyLess<typename Tree::key_type> less;
  if (a->is_leaf() != b->is_leaf()) return false;
  if (!less.equal(a->key, b->key)) return false;
  if (a->is_leaf()) return true;
  auto* ia = as_internal(a);
  auto* ib = as_internal(b);
  return same_shape<Tree>(ia->left.load(std::memory_order_relaxed),
                          ib->left.load(std::memory_order_relaxed)) &&
         same_shape<Tree>(ia->right.load(std::memory_order_relaxed),
                          ib->right.load(std::memory_order_relaxed));
}

TEST(IngestPrimitives, SortUniqueLastKeepsFinalElementPerKey) {
  // (key, tag) pairs ordered by key only: the surviving tag per key must be
  // the last one in input order.
  std::vector<std::pair<int, int>> v = {
      {3, 0}, {1, 0}, {3, 1}, {2, 0}, {1, 1}, {3, 2}};
  ingest::sort_unique_last(v, [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], std::make_pair(1, 1));
  EXPECT_EQ(v[1], std::make_pair(2, 0));
  EXPECT_EQ(v[2], std::make_pair(3, 2));
}

TEST(IngestPrimitives, NormalizeBatchLastOpPerKeyWins) {
  std::vector<BatchOp<long>> ops = {
      BatchOp<long>::insert(5), BatchOp<long>::erase(5),
      BatchOp<long>::erase(7), BatchOp<long>::insert(7),
      BatchOp<long>::insert(6)};
  ingest::normalize_batch(ops, std::less<long>{});
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].key, 5);
  EXPECT_EQ(ops[0].kind, BatchOpKind::kErase);
  EXPECT_EQ(ops[1].key, 6);
  EXPECT_EQ(ops[1].kind, BatchOpKind::kInsert);
  EXPECT_EQ(ops[2].key, 7);
  EXPECT_EQ(ops[2].kind, BatchOpKind::kInsert);
}

// Insert ops for keys [0, n).
std::vector<BatchOp<long>> insert_ops(std::size_t n) {
  std::vector<BatchOp<long>> ops;
  for (std::size_t k = 0; k < n; ++k) {
    ops.push_back(BatchOp<long>::insert(static_cast<long>(k)));
  }
  return ops;
}

TEST(IngestPrimitives, BatchFansOutFromTwoGrains) {
  constexpr std::size_t kGrain = scan::kIngestGrain;
  scan::ScanExecutor ex(4);
  const ParallelScanOptions opts(4, ex);
  // Below two grains the batch is one run: nothing reaches the pool.
  PnbBst<long> small;
  EXPECT_EQ(small.apply_batch(insert_ops(kGrain - 1), opts).inserted,
            kGrain - 1);
  PnbBst<long> one_grain;
  std::vector<long> few(kGrain);
  for (std::size_t i = 0; i < few.size(); ++i) few[i] = static_cast<long>(i);
  EXPECT_EQ(one_grain.bulk_load(few, opts), kGrain);
  PnbBst<long> below;
  EXPECT_EQ(below.apply_batch(insert_ops(2 * kGrain - 1), opts).inserted,
            2 * kGrain - 1);
  EXPECT_EQ(ex.tasks_executed(), 0u);
  // Two grains: two runs, one of them on a pool worker.
  PnbBst<long> two;
  EXPECT_EQ(two.apply_batch(insert_ops(2 * kGrain), opts).inserted,
            2 * kGrain);
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0));
  EXPECT_EQ(two.size(), 2 * kGrain);
  // bulk_load plans its subtree tasks with the same grain.
  const std::uint64_t before = ex.tasks_executed();
  std::vector<long> keys(4 * kGrain);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<long>(i);
  PnbBst<long> built;
  EXPECT_EQ(built.bulk_load(keys, opts), keys.size());
  EXPECT_TRUE(test::pool_ran_tasks(ex, before));
}

TEST(BulkBuild, DifferentialAgainstSequentialInsert) {
  scan::ScanExecutor ex(4);
  for (long n : {0L, 1L, 2L, 7L, 1000L, 4096L, 30000L}) {
    const auto keys = shuffled_keys(n, 42);
    PnbBst<long> bulk;
    EXPECT_EQ(bulk.bulk_load(keys, ParallelScanOptions(4, ex)),
              static_cast<std::size_t>(n));
    PnbBst<long> seq;
    for (long k : keys) seq.insert(k);
    EXPECT_EQ(bulk.size(), seq.size()) << "n=" << n;
    EXPECT_EQ(bulk.range_scan(0, n), seq.range_scan(0, n)) << "n=" << n;
    auto rep = check_current(bulk);
    EXPECT_TRUE(rep.ok) << "n=" << n << ": " << rep.error;
  }
}

TEST(BulkBuild, ProducesBalancedTree) {
  scan::ScanExecutor ex(8);
  for (long n : {1000L, 100000L}) {
    PnbBst<long> tree;
    tree.bulk_load(shuffled_keys(n, 7), ParallelScanOptions(8, ex));
    // n keys -> n+1 leaves under the root's left child, plus the root and
    // its ∞2 leaf. Perfectly balanced: depth <= ceil(log2(n+1)) + 2.
    std::size_t cap = 2;
    while ((1L << cap) < n + 1) ++cap;
    EXPECT_LE(max_depth(tree), cap + 2) << "n=" << n;
  }
}

TEST(BulkBuild, ParallelShapeIdenticalToSequentialConstructor) {
  const long n = 20000;
  const auto keys = shuffled_keys(n, 99);
  std::vector<long> sorted = keys;
  std::sort(sorted.begin(), sorted.end());

  PnbBst<long> ctor_tree(sorted.begin(), sorted.end());
  scan::ScanExecutor ex(4);
  for (unsigned threads : {1u, 2u, 4u}) {
    PnbBst<long> bulk;
    bulk.bulk_load(keys, ParallelScanOptions(threads, ex));
    EXPECT_TRUE(same_shape<PnbBst<long>>(ctor_tree.debug_root(),
                                         bulk.debug_root()))
        << "threads=" << threads
        << ": parallel bulk build diverged from the sequential shape";
  }
}

TEST(BulkBuild, DeduplicatesAndSortsArbitraryInput) {
  PnbBst<long> tree;
  EXPECT_EQ(tree.bulk_load({5, 3, 5, 1, 3, 3, 9}), 4u);
  EXPECT_EQ(tree.range_scan(0, 10), (std::vector<long>{1, 3, 5, 9}));
  auto rep = check_current(tree);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(BulkBuild, MapKeepsLastValuePerDuplicateKey) {
  PnbMap<long, long> map;
  EXPECT_EQ(map.bulk_load({{1, 10}, {2, 20}, {1, 11}, {2, 22}, {1, 12}}), 2u);
  EXPECT_EQ(map.get_or(1, -1), 12);
  EXPECT_EQ(map.get_or(2, -1), 22);
}

TEST(BulkBuild, ShardedRoutesEveryKeyToItsShard) {
  constexpr long kRange = 4000;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kRange});
  std::vector<std::pair<long, long>> items;
  const auto keys = shuffled_keys(kRange, 3);
  for (long k : keys) items.emplace_back(k, k * 2);
  scan::ScanExecutor ex(4);
  EXPECT_EQ(map.bulk_load(std::move(items), ParallelScanOptions(4, ex)),
            static_cast<std::size_t>(kRange));
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kRange));
  // Every shard holds exactly its contiguous quarter.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(map.shard_ref(s).size(), static_cast<std::size_t>(kRange / 4));
  }
  for (long k : {0L, 999L, 1000L, 2500L, 3999L}) {
    EXPECT_EQ(map.get_or(k, -1), k * 2);
    EXPECT_TRUE(map.shard_ref(map.shard_of(k)).contains(k));
  }
}

// Reference model for a batch against a std::set: last op per key, applied
// to the pre-batch contents. Returns {inserted, erased} counts.
std::pair<std::size_t, std::size_t> model_apply(
    std::set<long>& model, const std::vector<BatchOp<long>>& ops) {
  std::map<long, BatchOpKind> last;
  for (const auto& op : ops) last[op.key] = op.kind;
  std::size_t ins = 0;
  std::size_t ers = 0;
  for (const auto& [k, kind] : last) {
    if (kind == BatchOpKind::kInsert) {
      ins += model.insert(k).second;
    } else {
      ers += model.erase(k) > 0;
    }
  }
  return {ins, ers};
}

TEST(ApplyBatch, DifferentialOnTree) {
  scan::ScanExecutor ex(4);
  PnbBst<long> tree;
  std::set<long> model;
  Xoshiro256 rng(1234);
  constexpr long kKeys = 16384;
  for (int round = 0; round < 8; ++round) {
    // 3000+ ops over 16384 keys keep at least ~2700 distinct keys after
    // keep-last dedup: more than two ingest grains, so every round fans
    // out into parallel runs.
    std::vector<BatchOp<long>> ops;
    const int batch = 3000 + static_cast<int>(rng.next_bounded(5000));
    for (int i = 0; i < batch; ++i) {
      const long k = static_cast<long>(rng.next_bounded(kKeys));
      ops.push_back(rng.next_bounded(2) != 0 ? BatchOp<long>::insert(k)
                                             : BatchOp<long>::erase(k));
    }
    const auto expected = model_apply(model, ops);
    const std::uint64_t pool_before = ex.tasks_executed();
    const auto got =
        tree.apply_batch(std::move(ops), ParallelScanOptions(4, ex));
    EXPECT_GE(got.applied, 2 * scan::kIngestGrain) << "round " << round;
    EXPECT_TRUE(test::pool_ran_tasks(ex, pool_before)) << "round " << round;
    EXPECT_EQ(got.inserted, expected.first) << "round " << round;
    EXPECT_EQ(got.erased, expected.second) << "round " << round;
    const auto contents = tree.range_scan(0, kKeys);
    EXPECT_EQ(contents, std::vector<long>(model.begin(), model.end()))
        << "round " << round;
  }
  auto rep = check_current(tree);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ApplyBatch, EmptyAndAllMissErase) {
  PnbBst<long> tree;
  const auto empty = tree.apply_batch({});
  EXPECT_EQ(empty.applied, 0u);
  EXPECT_EQ(empty.changed(), 0u);
  const auto misses = tree.apply_batch(
      {BatchOp<long>::erase(1), BatchOp<long>::erase(2)});
  EXPECT_EQ(misses.applied, 2u);
  EXPECT_EQ(misses.erased, 0u);
  EXPECT_EQ(misses.inserted, 0u);
}

TEST(ApplyBatch, MapInsertIsInsertIfAbsent) {
  PnbMap<long, long> map;
  map.insert(1, 100);
  const auto r = map.apply_batch({BatchOp<long, long>::insert(1, 999),
                                  BatchOp<long, long>::insert(2, 200)});
  EXPECT_EQ(r.applied, 2u);
  EXPECT_EQ(r.inserted, 1u);  // key 1 already present: untouched
  EXPECT_EQ(map.get_or(1, -1), 100);
  EXPECT_EQ(map.get_or(2, -1), 200);
}

TEST(ApplyBatch, ShardedDifferentialAndCounts) {
  constexpr long kRange = 2048;
  ShardedPnbMap<long, long, 4> sharded(RangeSplitter<long>{0, kRange});
  PnbMap<long, long> single;
  Xoshiro256 rng(555);
  scan::ScanExecutor ex(4);
  for (int round = 0; round < 6; ++round) {
    std::vector<BatchOp<long, long>> ops;
    for (int i = 0; i < 1500; ++i) {
      const long k = static_cast<long>(rng.next_bounded(kRange));
      ops.push_back(rng.next_bounded(3) != 0
                        ? BatchOp<long, long>::insert(k, k * 7)
                        : BatchOp<long, long>::erase(k));
    }
    auto ops_copy = ops;
    const auto a =
        sharded.apply_batch(std::move(ops), ParallelScanOptions(4, ex));
    const auto b = single.apply_batch(std::move(ops_copy));
    EXPECT_EQ(a.applied, b.applied) << "round " << round;
    EXPECT_EQ(a.inserted, b.inserted) << "round " << round;
    EXPECT_EQ(a.erased, b.erased) << "round " << round;
    EXPECT_EQ(sharded.range_scan(0, kRange - 1),
              single.range_scan(0, kRange - 1))
        << "round " << round;
  }
}

// Sparse keyspace for the group-boundary tests: a batch's keys land far
// apart in an established tree, so no two ops of a descent group share
// more than the top of their paths.
constexpr long kSparseSpace = 1L << 24;

// Batch sizes around the descent-group and ingest-grain boundaries: a lone
// op, a short and an exact group, one and two groups plus a straggler, the
// serving batch size, one run either side of a grain, and two runs whose
// boundary falls inside a group.
std::vector<std::size_t> group_boundary_sizes() {
  constexpr std::size_t kG = ingest::kDescentGroup;
  constexpr std::size_t kGrain = scan::kIngestGrain;
  return {1,   kG - 1,     kG,         kG + 1,        2 * kG + 1,
          256, kGrain - 1, kGrain + 1, 2 * kGrain + 1};
}

// n (key, kind) ops on distinct sparse keys: about half the keys are
// present in `model` (erases hit, inserts collide), half are fresh.
std::vector<std::pair<long, BatchOpKind>> sparse_ops(
    const std::map<long, long>& model, std::size_t n, Xoshiro256& rng) {
  std::set<long> used;
  std::vector<std::pair<long, BatchOpKind>> ops;
  while (ops.size() < n) {
    long k = static_cast<long>(rng.next_bounded(kSparseSpace));
    if (rng.next_bounded(2) != 0) {
      const auto it = model.lower_bound(k);
      if (it != model.end()) k = it->first;
    }
    if (!used.insert(k).second) continue;
    ops.emplace_back(k, rng.next_bounded(2) != 0 ? BatchOpKind::kInsert
                                                 : BatchOpKind::kErase);
  }
  return ops;
}

// An established tree of 2^14 sparse random keys, and its model.
std::map<long, long> sparse_base(Xoshiro256& rng) {
  std::map<long, long> model;
  while (model.size() < (1u << 14)) {
    const long k = static_cast<long>(rng.next_bounded(kSparseSpace));
    model.emplace(k, k * 3);
  }
  return model;
}

TEST(ApplyBatch, GroupBoundariesOnTree) {
  scan::ScanExecutor ex(4);
  Xoshiro256 rng(2304);
  std::map<long, long> model = sparse_base(rng);
  PnbBst<long> tree;
  std::vector<long> base;
  for (const auto& [k, v] : model) base.push_back(k);
  tree.bulk_load(base);
  for (const std::size_t n : group_boundary_sizes()) {
    std::vector<BatchOp<long>> ops;
    std::size_t inserted = 0;
    std::size_t erased = 0;
    for (const auto& [k, kind] : sparse_ops(model, n, rng)) {
      if (kind == BatchOpKind::kInsert) {
        ops.push_back(BatchOp<long>::insert(k));
        inserted += model.emplace(k, k * 3).second;
      } else {
        ops.push_back(BatchOp<long>::erase(k));
        erased += model.erase(k);
      }
    }
    const auto got =
        tree.apply_batch(std::move(ops), ParallelScanOptions(4, ex));
    EXPECT_EQ(got.applied, n) << "n=" << n;
    EXPECT_EQ(got.inserted, inserted) << "n=" << n;
    EXPECT_EQ(got.erased, erased) << "n=" << n;
    std::vector<long> want;
    for (const auto& [k, v] : model) want.push_back(k);
    EXPECT_EQ(tree.range_scan(0, kSparseSpace), want) << "n=" << n;
  }
  auto rep = check_current(tree);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(ApplyBatch, GroupBoundariesOnMap) {
  scan::ScanExecutor ex(4);
  Xoshiro256 rng(2305);
  std::map<long, long> model = sparse_base(rng);
  PnbMap<long, long> map;
  map.bulk_load(std::vector<std::pair<long, long>>(model.begin(), model.end()));
  for (const std::size_t n : group_boundary_sizes()) {
    std::vector<BatchOp<long, long>> ops;
    std::size_t inserted = 0;
    std::size_t erased = 0;
    // Values differ per batch, so insert-if-absent shows in the contents.
    const long tag = static_cast<long>(n);
    for (const auto& [k, kind] : sparse_ops(model, n, rng)) {
      if (kind == BatchOpKind::kInsert) {
        ops.push_back(BatchOp<long, long>::insert(k, k + tag));
        inserted += model.emplace(k, k + tag).second;
      } else {
        ops.push_back(BatchOp<long, long>::erase(k));
        erased += model.erase(k);
      }
    }
    const auto got =
        map.apply_batch(std::move(ops), ParallelScanOptions(4, ex));
    EXPECT_EQ(got.applied, n) << "n=" << n;
    EXPECT_EQ(got.inserted, inserted) << "n=" << n;
    EXPECT_EQ(got.erased, erased) << "n=" << n;
    const std::vector<std::pair<long, long>> want(model.begin(), model.end());
    EXPECT_EQ(map.range_scan(0, kSparseSpace), want) << "n=" << n;
  }
}

TEST(Reshard, SameSplitterPreservesContentsAndRebalances) {
  constexpr long kRange = 4096;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kRange});
  // Sorted sequential inserts give shard 0 a degenerate right-spine tree.
  for (long k = 0; k < kRange / 4; ++k) map.insert(k, k + 1);
  const auto before = map.range_scan(0, kRange - 1);
  const std::size_t deep = max_depth(map.shard_ref(0).underlying());
  EXPECT_GE(deep, static_cast<std::size_t>(kRange / 8));  // degenerate
  EXPECT_EQ(map.reshard(map.splitter()),
            static_cast<std::size_t>(kRange / 4));
  EXPECT_LE(max_depth(map.shard_ref(0).underlying()), 14u);  // balanced
  EXPECT_EQ(map.range_scan(0, kRange - 1), before);
  // No snapshot held across the reshard: nothing pins the replaced shard
  // maps, so the reclaimer frees them and the gauges fall.
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.range_scan(0, kRange - 1), before);
}

TEST(Reshard, ReshardMigratesToNewRoutingAndKeepsSnapshotsValid) {
  constexpr long kRange = 3000;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kRange});
  for (long k = 0; k < kRange; k += 3) map.insert(k, k * 2);
  const auto before = map.range_scan(0, kRange - 1);
  auto old_snap = map.snapshot();
  const std::size_t old_size = old_snap.size();

  // Skewed routing: shard 0 now owns [0, 2400), shard 3 the tail.
  EXPECT_EQ(map.reshard(RangeSplitter<long>{0, 4 * kRange}),
            before.size());
  EXPECT_EQ(map.range_scan(0, kRange - 1), before);
  for (long k = 0; k < kRange; ++k) {
    EXPECT_EQ(map.get_or(k, -1), (k % 3 == 0) ? k * 2 : -1);
  }
  // All keys < kRange now route to the first shard under the wider range.
  EXPECT_EQ(map.shard_of(0), map.shard_of(kRange - 1));
  // The pre-reshard snapshot still answers from the pre-reshard world.
  EXPECT_EQ(old_snap.size(), old_size);
  EXPECT_EQ(old_snap.get(0).value_or(-1), 0);
  // Retired generation: 4 replaced maps, held by the old snapshot's pin.
  // Once it drops, the reclaimer frees them.
  EXPECT_EQ(map.retired_maps(), 4u);
  { auto drop = std::move(old_snap); }
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.range_scan(0, kRange - 1), before);
}

TEST(Reshard, WriteAfterReshardLandsInNewShards) {
  ShardedPnbMap<long, long, 2> map(RangeSplitter<long>{0, 100});
  map.insert(10, 1);
  map.reshard(RangeSplitter<long>{0, 10000});
  map.insert(5000, 2);
  EXPECT_EQ(map.get_or(10, -1), 1);
  EXPECT_EQ(map.get_or(5000, -1), 2);
  EXPECT_EQ(map.shard_of(5000), 1u);
  EXPECT_TRUE(map.shard_ref(1).contains(5000));
}

// Concept coverage: the ingest surface is modeled by the PNB stack and by
// nothing else.
static_assert(BatchIngestible<PnbBst<long>>);
static_assert(BatchIngestible<PnbMap<long, long>>);
static_assert(BatchIngestible<ShardedPnbMap<long, long, 4>>);
static_assert(!BatchIngestible<NbBst<long>>);
static_assert(!BatchIngestible<LockedBst<long>>);
static_assert(!BatchIngestible<CowBst<long>>);
static_assert(!BatchIngestible<LfSkipList<long>>);

TEST(IngestConcepts, TreeBatchSurfaceRoundTrips) {
  PnbBst<long> tree;
  EXPECT_EQ(tree.bulk_load({3, 1, 2}), 3u);
  const auto r = tree.apply_batch({BatchOp<long>::insert(9),
                                   BatchOp<long>::erase(1)});
  EXPECT_EQ(r.inserted, 1u);
  EXPECT_EQ(r.erased, 1u);
  EXPECT_EQ(tree.range_scan(0, 10), (std::vector<long>{2, 3, 9}));
}

}  // namespace
}  // namespace pnbbst

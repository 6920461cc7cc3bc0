// Batch ingest under concurrency (stress label):
//
//  * apply_batch against a live tree while single-op writers and wait-free
//    scanners run — per-partition differential final state;
//  * many concurrent apply_batch calls on one tree (disjoint and
//    overlapping key ranges) — union/idempotence invariants;
//  * batched writes racing snapshot scans and parallel counts —
//    sorted-unique and monotone-count audits;
//  * reshard under reader churn — readers always observe table-consistent
//    state (no duplicates, no misses of untouched keys), pre-reshard
//    snapshots stay answerable;
//  * same-splitter reshards racing writers on the other shards — a static
//    shard is never disturbed, and the writers' traffic survives every
//    cutover through the write-intent ledger;
//  * apply_batch's lockstep descents racing churners that retire the
//    nodes on the warmed paths — the walk's own pin keeps them allocated.
//
// Swept under ASan+UBSan and TSan (CI runs the stress label in the
// sanitizer jobs).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "core/validate.h"
#include "ingest/batch_apply.h"
#include "mem/alloc_policy.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using ingest::BatchOp;
using ingest::BatchOpKind;
using scan::ParallelScanOptions;

// Deterministic batch of mixed ops in [base, base + range).
std::vector<BatchOp<long>> make_batch(std::uint64_t seed, long base,
                                      long range, int n) {
  Xoshiro256 rng(seed);
  std::vector<BatchOp<long>> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const long k =
        base + static_cast<long>(
                   rng.next_bounded(static_cast<std::uint64_t>(range)));
    ops.push_back(rng.next_bounded(3) != 0 ? BatchOp<long>::insert(k)
                                           : BatchOp<long>::erase(k));
  }
  return ops;
}

// Final state of a region after a sequence of batches (last-op-wins per
// batch, batches applied in order).
std::set<long> model_batches(std::uint64_t seed_base, long base, long range,
                             int rounds, int batch_size) {
  std::set<long> model;
  for (int r = 0; r < rounds; ++r) {
    const auto ops = make_batch(seed_base + static_cast<std::uint64_t>(r),
                                base, range, batch_size);
    // last op per key within the batch
    std::map<long, BatchOpKind> last;
    for (const auto& op : ops) last[op.key] = op.kind;
    for (const auto& [k, kind] : last) {
      if (kind == BatchOpKind::kInsert) {
        model.insert(k);
      } else {
        model.erase(k);
      }
    }
  }
  return model;
}

TEST(IngestConcurrent, BatchesVsSingleOpsVsScansPartitionedDifferential) {
  // Region A [0, 4k): batch thread. Region B [4k, 8k): single-op writer.
  // Region C [8k, 12k): second batch thread. A scanner audits throughout.
  // 4000 ops over 4000 keys leave ~2500 distinct keys per batch after
  // keep-last dedup: more than two ingest grains, so every batch fans out.
  constexpr long kRegion = 4000;
  constexpr int kRounds = 12;
  constexpr int kBatch = 4000;
  PnbBst<long> tree;
  scan::ScanExecutor ex(4);
  std::atomic<bool> stop{false};

  auto batch_driver = [&tree, &ex](std::uint64_t seed_base, long base) {
    for (int r = 0; r < kRounds; ++r) {
      const auto res = tree.apply_batch(
          make_batch(seed_base + static_cast<std::uint64_t>(r), base,
                     kRegion, kBatch),
          ParallelScanOptions(4, ex));
      EXPECT_GE(res.applied, 2 * scan::kIngestGrain);
    }
  };

  std::thread ta([&] { batch_driver(1000, 0); });
  std::thread tc([&] { batch_driver(2000, 2 * kRegion); });
  std::set<long> model_b;
  std::thread tb([&tree, &model_b] {
    Xoshiro256 rng(42);
    for (int i = 0; i < 30000; ++i) {
      const long k = kRegion + static_cast<long>(rng.next_bounded(kRegion));
      if (rng.next_bounded(3) != 0) {
        tree.insert(k);
        model_b.insert(k);
      } else {
        tree.erase(k);
        model_b.erase(k);
      }
    }
  });
  std::thread scanner([&tree, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto scan = tree.range_scan(0, 3 * kRegion);
      long prev = -1;
      for (long k : scan) {
        ASSERT_GT(k, prev) << "scan not sorted-unique under batch churn";
        prev = k;
      }
    }
  });

  ta.join();
  tb.join();
  tc.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0)) << "batches never fanned out";

  const auto model_a = model_batches(1000, 0, kRegion, kRounds, kBatch);
  const auto model_c =
      model_batches(2000, 2 * kRegion, kRegion, kRounds, kBatch);
  EXPECT_EQ(tree.range_scan(0, kRegion - 1),
            std::vector<long>(model_a.begin(), model_a.end()));
  EXPECT_EQ(tree.range_scan(kRegion, 2 * kRegion - 1),
            std::vector<long>(model_b.begin(), model_b.end()));
  EXPECT_EQ(tree.range_scan(2 * kRegion, 3 * kRegion - 1),
            std::vector<long>(model_c.begin(), model_c.end()));
}

TEST(IngestConcurrent, OverlappingInsertBatchesAreIdempotentUnion) {
  // Several threads batch-insert overlapping key sets; inserts are
  // insert-if-absent, so the union must come out exact and the per-key
  // success counts must sum to exactly one per key.
  constexpr long kKeys = 20000;  // ~19 ingest grains: every batch fans out
  constexpr unsigned kThreads = 4;
  PnbBst<long> tree;
  scan::ScanExecutor ex(2);
  std::atomic<std::size_t> total_inserted{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tree, &ex, &total_inserted, t] {
      std::vector<BatchOp<long>> ops;
      ops.reserve(kKeys);
      // Every thread covers all keys, in a thread-dependent order.
      for (long i = 0; i < kKeys; ++i) {
        const long k = (i * (2 * t + 1)) % kKeys;
        ops.push_back(BatchOp<long>::insert(k));
      }
      const auto r =
          tree.apply_batch(std::move(ops), ParallelScanOptions(2, ex));
      total_inserted.fetch_add(r.inserted, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0)) << "batches never fanned out";
  EXPECT_EQ(tree.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(total_inserted.load(), static_cast<std::size_t>(kKeys))
      << "insert-if-absent must succeed exactly once per key across batches";
  const auto scan = tree.range_scan(0, kKeys - 1);
  ASSERT_EQ(scan.size(), static_cast<std::size_t>(kKeys));
  for (long i = 0; i < kKeys; ++i) {
    ASSERT_EQ(scan[static_cast<std::size_t>(i)], i);
  }
}

TEST(IngestConcurrent, MonotoneBatchInsertsBoundParallelScanCounts) {
  // Insert-only batches: membership grows monotonically, so a parallel
  // snapshot count must lie between completed-before-invocation and
  // started-before-response, and never decrease.
  constexpr long kKeys = 16384;
  constexpr int kChunks = 8;  // 2048-op batches: two ingest grains each
  static_assert(kKeys / kChunks >= 2 * scan::kIngestGrain);
  PnbMap<long, long> map;
  scan::ScanExecutor ex(2);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};

  std::thread writer([&map, &ex, &completed] {
    for (int c = 0; c < kChunks; ++c) {
      std::vector<BatchOp<long, long>> ops;
      const long base = c * (kKeys / kChunks);
      for (long k = base; k < base + kKeys / kChunks; ++k) {
        ops.push_back(BatchOp<long, long>::insert(k, k));
      }
      const auto r =
          map.apply_batch(std::move(ops), ParallelScanOptions(2, ex));
      completed.fetch_add(r.inserted, std::memory_order_seq_cst);
    }
  });
  std::thread scanner([&map, &completed, &stop] {
    std::uint64_t prev = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t lo = completed.load(std::memory_order_seq_cst);
      const std::uint64_t n = map.parallel_range_count(0, kKeys - 1, 2);
      ASSERT_GE(n, lo) << "scan lost a completed batched insert";
      ASSERT_LE(n, static_cast<std::uint64_t>(kKeys));
      ASSERT_GE(n, prev) << "count went backwards";
      prev = n;
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0)) << "batches never fanned out";
}

TEST(IngestConcurrent, ReshardUnderReadChurnKeepsEveryKeyObservable) {
  // No writers: every loaded key must be observable with its value in every
  // read, across repeated reshards (atomic table cutover means a reader
  // never sees a half-migrated world). Merged scans must stay exact.
  constexpr long kKeys = 8000;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});
  std::vector<std::pair<long, long>> items;
  for (long k = 0; k < kKeys; ++k) items.emplace_back(k, k * 3);
  map.bulk_load(std::move(items));
  auto pre_snap = map.snapshot();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 3; ++t) {
    readers.emplace_back([&map, &stop, t] {
      Xoshiro256 rng(thread_seed(9000, t));
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.next_bounded(kKeys));
        ASSERT_EQ(map.get_or(k, -1), k * 3) << "reader missed key " << k;
      }
    });
  }
  readers.emplace_back([&map, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto scan = map.range_scan(0, kKeys - 1);
      ASSERT_EQ(scan.size(), static_cast<std::size_t>(kKeys))
          << "merged scan during reshard lost or duplicated keys";
    }
  });

  // Reshard between three routings, repeatedly, while readers churn.
  for (int round = 0; round < 6; ++round) {
    const long hi = (round % 3 == 0) ? kKeys
                    : (round % 3 == 1) ? kKeys / 2
                                       : 4 * kKeys;
    EXPECT_EQ(map.reshard(RangeSplitter<long>{0, hi}),
              static_cast<std::size_t>(kKeys));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  // Pre-reshard snapshot still answers from its own world.
  EXPECT_EQ(pre_snap.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(pre_snap.get(7).value_or(-1), 21);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  // The pre-reshard snapshot's pin predates every cutover's retire, so it
  // holds back every generation: all 6 x 4 replaced maps are retained.
  EXPECT_EQ(map.retired_maps(), 24u);  // 6 reshards x 4 shards
  // Once it drops, nothing pins them and the reclaimer frees them all.
  { auto drop = std::move(pre_snap); }
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
}

TEST(IngestConcurrent, SameSplitterReshardKeepsOtherShardWritesLossFree) {
  // Shard 0 holds a static key set; writers hammer the other shards while
  // the map is resharded to its own splitter repeatedly. A reshard must
  // never disturb shard 0's contents (no writers there), and every write
  // racing it on the other shards must survive the cutover through the
  // write-intent ledger.
  constexpr long kKeys = 8000;  // 4 shards x 2000
  constexpr long kShardWidth = kKeys / 4;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});
  for (long k = 0; k < kShardWidth; ++k) map.insert(k, k + 7);

  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 3; ++t) {
    // Writer t owns shard t+1's key range: deterministic final state.
    pool.emplace_back([&map, t] {
      Xoshiro256 rng(thread_seed(31, t));
      const long base = (t + 1) * kShardWidth;
      for (int i = 0; i < 40000; ++i) {
        const long k = base + static_cast<long>(
                                  rng.next_bounded(kShardWidth));
        if (rng.next_bounded(2) != 0) {
          map.insert(k, k);
        } else {
          map.erase(k);
        }
      }
    });
  }
  pool.emplace_back([&map, &stop] {
    Xoshiro256 rng(77);
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.next_bounded(kShardWidth));
      ASSERT_EQ(map.get_or(k, -1), k + 7) << "reshard disturbed shard 0";
    }
  });

  for (int round = 0; round < 10; ++round) {
    ASSERT_GE(map.reshard(map.splitter()),
              static_cast<std::size_t>(kShardWidth));
  }
  for (unsigned t = 0; t < 3; ++t) pool[t].join();
  stop.store(true, std::memory_order_release);
  pool.back().join();

  // No snapshot ever pinned a retired generation here, so once the
  // reclaimer has run every reshard's replaced maps are freed.
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  // Shard 0 exact; other shards match their writers' deterministic replay.
  for (long k = 0; k < kShardWidth; ++k) {
    ASSERT_EQ(map.get_or(k, -1), k + 7);
  }
  for (unsigned t = 0; t < 3; ++t) {
    std::set<long> model;
    Xoshiro256 rng(thread_seed(31, t));
    const long base = (t + 1) * kShardWidth;
    for (int i = 0; i < 40000; ++i) {
      const long k = base + static_cast<long>(rng.next_bounded(kShardWidth));
      if (rng.next_bounded(2) != 0) {
        model.insert(k);
      } else {
        model.erase(k);
      }
    }
    const auto scan = map.range_scan(base, base + kShardWidth - 1);
    ASSERT_EQ(scan.size(), model.size()) << "writer region " << t;
    for (const auto& [k, v] : scan) {
      ASSERT_TRUE(model.count(k)) << "phantom key " << k;
      ASSERT_EQ(v, k);
    }
  }
}

TEST(IngestConcurrent, DescentWalkRacesRetirementOnWarmedPaths) {
  // apply_batch's lockstep descents (PnbBst::prefetch_paths) run on
  // executor workers that hold no pin of their own between ops. Two
  // churners erase and re-insert the batches' hot keys, so nodes on the
  // paths a walk is warming are unlinked and retired while it holds them;
  // only the walk's own pin keeps them allocated. Four runs per batch and
  // two churners outnumber a 4-CPU host's cores, so a walk is sometimes
  // preempted for long enough that the epoch moves on around it (with one
  // run per batch, a walk without the pin went unreported). HeapAlloc: a
  // freed node goes back to malloc, where ASan reports a read of it
  // (ArenaAlloc recycles slots into its own freelist, which ASan cannot
  // see). The tree has its own reclaimer, so epochs advance with this
  // test's threads alone.
  constexpr long kSpace = 1L << 17;
  constexpr long kHot = 64;  // hot keys: even, spread over the keyspace
  constexpr std::size_t kBatch = 4 * scan::kIngestGrain;  // four runs
  constexpr int kRounds = 150;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats, mem::HeapAlloc>
      tree(rec);
  std::vector<long> hot;
  for (long i = 0; i < kHot; ++i) hot.push_back(i * (kSpace / kHot));
  {
    // Established base: 2^14 sparse even keys plus the hot keys.
    Xoshiro256 rng(77);
    std::vector<long> base = hot;
    for (int i = 0; i < (1 << 14); ++i) {
      base.push_back(2 * static_cast<long>(rng.next_bounded(kSpace / 2)));
    }
    tree.bulk_load(std::move(base));
  }
  std::atomic<bool> stop{false};
  auto churn = [&tree, &hot, &stop](std::size_t offset) {
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < hot.size(); ++i) {
        const long k = hot[(i + offset) % hot.size()];
        tree.erase(k);
        tree.insert(k);
      }
    }
  };
  std::thread c1(churn, 0);
  std::thread c2(churn, hot.size() / 2);

  // Each batch: every hot key (racing the churners) plus random odd keys
  // only this thread touches, whose outcome the model tracks exactly.
  scan::ScanExecutor ex(4);
  std::set<long> odd_model;
  Xoshiro256 rng(78);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<BatchOp<long>> ops;
    for (long k : hot) {
      ops.push_back(rng.next_bounded(2) != 0 ? BatchOp<long>::insert(k)
                                             : BatchOp<long>::erase(k));
    }
    std::map<long, BatchOpKind> last;
    while (ops.size() < kBatch) {
      const long k = 2 * static_cast<long>(rng.next_bounded(kSpace / 2)) + 1;
      const BatchOpKind kind = rng.next_bounded(2) != 0 ? BatchOpKind::kInsert
                                                        : BatchOpKind::kErase;
      ops.push_back(kind == BatchOpKind::kInsert ? BatchOp<long>::insert(k)
                                                 : BatchOp<long>::erase(k));
      last[k] = kind;
    }
    for (const auto& [k, kind] : last) {
      if (kind == BatchOpKind::kInsert) {
        odd_model.insert(k);
      } else {
        odd_model.erase(k);
      }
    }
    tree.apply_batch(std::move(ops), ParallelScanOptions(4, ex));
  }
  stop.store(true, std::memory_order_release);
  c1.join();
  c2.join();
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0)) << "batches never fanned out";

  std::vector<long> odd;
  tree.range_visit(0, kSpace, [&odd](long k) {
    if (k % 2 != 0) odd.push_back(k);
  });
  EXPECT_EQ(odd, std::vector<long>(odd_model.begin(), odd_model.end()));
  auto rep = check_current(tree);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(IngestConcurrent, ShardedBatchesRaceMergedParallelScans) {
  // Batched updates on a sharded map while merged snapshot scans audit
  // well-formedness (ascending, per-key value invariant v == k * 2 for
  // every key any batch ever inserts) and the per-shard parallel count of
  // the same snapshot agrees with its contents.
  constexpr long kKeys = 6000;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});
  std::atomic<bool> stop{false};

  std::thread batcher([&map] {
    Xoshiro256 rng(123);
    for (int round = 0; round < 40; ++round) {
      std::vector<BatchOp<long, long>> ops;
      for (int i = 0; i < 2000; ++i) {
        const long k = static_cast<long>(rng.next_bounded(kKeys));
        ops.push_back(rng.next_bounded(3) != 0
                          ? BatchOp<long, long>::insert(k, k * 2)
                          : BatchOp<long, long>::erase(k));
      }
      map.apply_batch(std::move(ops), ParallelScanOptions(2));
    }
  });
  std::thread auditor([&map, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      auto snap = map.snapshot();
      const auto scan = snap.range_scan(0, kKeys - 1);
      ASSERT_EQ(snap.parallel_range_count(0, kKeys - 1, 2), scan.size());
      long prev = -1;
      for (const auto& [k, v] : scan) {
        ASSERT_GT(k, prev) << "merged scan not sorted-unique";
        ASSERT_EQ(v, k * 2);
        prev = k;
      }
    }
  });
  batcher.join();
  stop.store(true, std::memory_order_release);
  auditor.join();
}

}  // namespace
}  // namespace pnbbst

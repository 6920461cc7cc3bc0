// Parallel scan engine under real concurrency (stress label; the CI
// sanitizer jobs run this suite explicitly alongside the unit label):
//
//  * 8 threads (4 writers + scanners) on one PnbBst: every scanner takes a
//    snapshot, reads its contents with range_scan (sorted/unique, always
//    the immutable reserved stripe, no out-of-range keys) and counts the
//    same snapshot with the chunked parallel_range_count, which must agree;
//  * snapshot repeatability: a snapshot taken mid-churn answers every
//    parallel and sequential query identically, forever;
//  * monotone count bound: under an insert-only writer, parallel
//    range_count is sandwiched between completed-before-invocation and
//    started-before-response — the linearizability bound a single-phase
//    scan must satisfy;
//  * sharded front-end: merged snapshots under multi-writer churn keep the
//    documented per-key-atomic contract on the reserved stripe, and their
//    parallel count agrees with their contents;
//  * windowed counts against reclamation: parallel counts of aging
//    snapshots race churners that retire the nodes a count's window still
//    holds (the ASan CI job runs this test five more times).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "mem/alloc_policy.h"
#include "reclaim/epoch.h"
#include "scan/executor.h"
#include "scan/parallel_scan.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using scan::ParallelScanOptions;
using scan::ScanExecutor;

constexpr long kKeyRange = 1L << 14;
constexpr int kWriterOps = 30000;

// Keys == 0 (mod 4) are prefilled and never written: every scan, at every
// phase, must observe the full stripe. Writers churn the other residues.
bool in_stripe(long k) { return k % 4 == 0; }

template <class Tree>
void prefill_stripe(Tree& tree) {
  for (long k = 0; k < kKeyRange; k += 4) ASSERT_TRUE(tree.insert(k));
}

void churn_writer(PnbBst<long>& tree, unsigned ti) {
  Xoshiro256 rng(thread_seed(101, ti));
  for (int i = 0; i < kWriterOps; ++i) {
    long k = static_cast<long>(rng.next_bounded(kKeyRange));
    if (in_stripe(k)) ++k;  // never touch the reserved stripe
    if (rng.next_bounded(2) == 0) {
      tree.insert(k);
    } else {
      tree.erase(k);
    }
  }
}

TEST(ParallelScanConcurrent, ChunkedCountsStayConsistentUnderChurn) {
  PnbBst<long> tree;
  prefill_stripe(tree);
  ScanExecutor ex(4);
  std::atomic<unsigned> writers_done{0};
  constexpr unsigned kWriters = 4;

  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < kWriters; ++ti) {
    pool.emplace_back([&tree, &writers_done, ti] {
      churn_writer(tree, ti);
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (unsigned si = 0; si < 3; ++si) {
    pool.emplace_back([&tree, &ex, &writers_done, si] {
      Xoshiro256 rng(thread_seed(707, si));
      int iters = 0;
      while (writers_done.load(std::memory_order_acquire) < kWriters ||
             iters < 10) {
        ++iters;
        const long lo =
            static_cast<long>(rng.next_bounded(kKeyRange / 2));
        const long hi = lo + static_cast<long>(
                                 rng.next_bounded(kKeyRange - lo));
        auto snap = tree.snapshot();
        const auto keys = snap.range_scan(lo, hi);
        ASSERT_EQ(snap.parallel_range_count(lo, hi,
                                            ParallelScanOptions(4u, ex)),
                  keys.size())
            << "chunked count disagrees in [" << lo << "," << hi << "]";
        long expected_stripe = 0;
        long prev = lo - 1;
        for (long k : keys) {
          ASSERT_GT(k, prev) << "not sorted/unique";
          ASSERT_GE(k, lo);
          ASSERT_LE(k, hi);
          prev = k;
          if (in_stripe(k)) ++expected_stripe;
        }
        // ceil counting of stripe keys in [lo, hi]
        const long first = ((lo + 3) / 4) * 4;
        const long stripe_in_range =
            first > hi ? 0 : (hi - first) / 4 + 1;
        ASSERT_EQ(expected_stripe, stripe_in_range)
            << "stripe keys lost in [" << lo << "," << hi << "]";
      }
    });
  }
  for (auto& th : pool) th.join();
}

TEST(ParallelScanConcurrent, SnapshotAnswersAreImmutableUnderChurn) {
  PnbBst<long> tree;
  prefill_stripe(tree);
  ScanExecutor ex(4);
  std::atomic<bool> stop{false};
  std::thread writer([&tree, &stop] {
    Xoshiro256 rng(thread_seed(33, 0));
    while (!stop.load(std::memory_order_acquire)) {
      long k = static_cast<long>(rng.next_bounded(kKeyRange)) | 1;
      tree.insert(k);
      tree.erase(k);
    }
  });

  for (int round = 0; round < 20; ++round) {
    auto snap = tree.snapshot();
    const auto reference = snap.range_scan(0L, kKeyRange - 1);
    for (unsigned threads : {2u, 8u}) {
      ASSERT_EQ(snap.parallel_range_count(0L, kKeyRange - 1,
                                          ParallelScanOptions(threads, ex)),
                reference.size())
          << "round " << round << " threads " << threads;
    }
    ASSERT_EQ(snap.range_scan(0L, kKeyRange - 1), reference)
        << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(ParallelScanConcurrent, MonotoneInsertCountBound) {
  PnbBst<long> tree;
  ScanExecutor ex(4);
  constexpr long kInserts = 20000;
  std::atomic<long> published{0};  // inserts completed so far
  std::thread writer([&tree, &published] {
    for (long k = 0; k < kInserts; ++k) {
      ASSERT_TRUE(tree.insert(k));
      published.store(k + 1, std::memory_order_release);
    }
  });

  // One count per insert the scanner observes: it yields while `published`
  // has not moved instead of re-counting an unchanged prefix.
  std::size_t prev_count = 0;
  std::size_t counts = 0;
  long counted_at = -1;
  for (;;) {
    const long before = published.load(std::memory_order_acquire);
    if (before >= kInserts) break;
    if (before == counted_at) {
      std::this_thread::yield();
      continue;
    }
    counted_at = before;
    const std::size_t c = tree.parallel_range_count(
        0L, kInserts - 1, ParallelScanOptions(4u, ex));
    const long after = published.load(std::memory_order_acquire);
    // Completed-before-invocation <= c <= started-before-response (the one
    // writer has at most one insert in flight past `after`).
    ASSERT_GE(c, static_cast<std::size_t>(before));
    ASSERT_LE(c, static_cast<std::size_t>(after) + 1);
    ASSERT_GE(c, prev_count) << "scan count went backwards";
    prev_count = c;
    ++counts;
  }
  writer.join();
  EXPECT_GT(counts, 0u);
  EXPECT_EQ(tree.parallel_range_count(0L, kInserts - 1,
                                      ParallelScanOptions(8u, ex)),
            static_cast<std::size_t>(kInserts));
}

TEST(ParallelScanConcurrent, ShardedMergedParallelCountsUnderChurn) {
  // Eight range shards; every scan below crosses all seven boundaries.
  ShardedPnbMap<long, long, 8> map(RangeSplitter<long>{0, kKeyRange});
  for (long k = 0; k < kKeyRange; k += 4) ASSERT_TRUE(map.insert(k, k));
  ScanExecutor ex(4);
  std::atomic<unsigned> writers_done{0};
  constexpr unsigned kWriters = 4;

  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < kWriters; ++ti) {
    pool.emplace_back([&map, &writers_done, ti] {
      Xoshiro256 rng(thread_seed(55, ti));
      for (int i = 0; i < kWriterOps; ++i) {
        long k = static_cast<long>(rng.next_bounded(kKeyRange));
        if (in_stripe(k)) ++k;
        if (rng.next_bounded(2) == 0) {
          map.insert(k, -k);
        } else {
          map.erase(k);
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (unsigned si = 0; si < 3; ++si) {
    pool.emplace_back([&map, &ex, &writers_done] {
      int iters = 0;
      while (writers_done.load(std::memory_order_acquire) < kWriters ||
             iters < 5) {
        ++iters;
        auto snap = map.snapshot();
        const auto pairs = snap.range_scan(0L, kKeyRange - 1);
        ASSERT_EQ(snap.parallel_range_count(0L, kKeyRange - 1,
                                            ParallelScanOptions(8u, ex)),
                  pairs.size())
            << "parallel count disagrees with the snapshot's contents";
        long prev = -1;
        long stripe_seen = 0;
        for (const auto& [k, v] : pairs) {
          ASSERT_GT(k, prev) << "concatenation not sorted/unique";
          prev = k;
          if (in_stripe(k)) {
            ASSERT_EQ(v, k) << "stripe value corrupted";
            ++stripe_seen;
          }
        }
        ASSERT_EQ(stripe_seen, kKeyRange / 4) << "stripe keys lost";
      }
    });
  }
  for (auto& th : pool) th.join();

  // Quiescent: a frozen composite snapshot answers parallel == sequential.
  auto snap = map.snapshot();
  EXPECT_EQ(snap.parallel_range_count(0L, kKeyRange - 1,
                                      ParallelScanOptions(8u, ex)),
            snap.range_count(0L, kKeyRange - 1));
}

TEST(ParallelScanConcurrent, WindowedCountsRaceRetirement) {
  // A count's walk keeps up to PnbBst::kScanWindow pushed child pointers
  // in flight before it resolves them, and follows prev chains into
  // versions the live tree has already unlinked. Two churners erase and
  // re-insert odd keys all over the range, so nodes a window holds are
  // retired while it holds them; only the snapshot's epoch pin (and each
  // chunk task's own) keeps them allocated. Each snapshot ages while the
  // churners run before it is counted. HeapAlloc: a freed node goes back
  // to malloc, where ASan reports a read of it. The tree has its own
  // reclaimer, so epochs advance with this test's threads alone.
  constexpr long kSpace = 1L << 15;
  constexpr int kRounds = 60;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats, mem::HeapAlloc>
      tree(rec);
  std::vector<long> evens;
  for (long k = 0; k < kSpace; k += 2) evens.push_back(k);
  tree.bulk_load(evens);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> churned{0};
  auto churn = [&tree, &stop, &churned](unsigned ti) {
    Xoshiro256 rng(thread_seed(909, ti));
    while (!stop.load(std::memory_order_acquire)) {
      const long k = static_cast<long>(rng.next_bounded(kSpace)) | 1;
      tree.insert(k);
      tree.erase(k);
      churned.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread c1(churn, 0);
  std::thread c2(churn, 1);

  ScanExecutor ex(4);
  Xoshiro256 rng(910);
  for (int round = 0; round < kRounds; ++round) {
    const long lo = static_cast<long>(rng.next_bounded(kSpace / 2));
    const long hi = lo + static_cast<long>(rng.next_bounded(kSpace / 2));
    const auto snap = tree.snapshot();
    // Let the churners retire part of this snapshot's version first.
    const std::uint64_t start = churned.load(std::memory_order_relaxed);
    while (churned.load(std::memory_order_relaxed) < start + 200) {
      std::this_thread::yield();
    }
    const std::size_t count =
        snap.parallel_range_count(lo, hi, ParallelScanOptions(4u, ex));
    EXPECT_EQ(count, snap.range_scan(lo, hi).size()) << "round " << round;
    EXPECT_EQ(snap.range_count(lo, hi), count) << "round " << round;
    const auto evens_in = static_cast<std::size_t>(hi / 2 - (lo + 1) / 2 + 1);
    EXPECT_GE(count, evens_in) << "even keys lost, round " << round;
    EXPECT_GE(tree.parallel_range_count(lo, hi, ParallelScanOptions(4u, ex)),
              evens_in)
        << "round " << round;
    if (HasFailure()) break;  // the churners must still be joined
  }
  stop.store(true, std::memory_order_release);
  c1.join();
  c2.join();
}

}  // namespace
}  // namespace pnbbst

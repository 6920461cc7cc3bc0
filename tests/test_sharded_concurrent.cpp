// ShardedPnbMap under concurrency (stress label):
//
//  * differential: identical deterministic per-thread op streams applied to
//    a 4-shard map and a single PnbMap must leave identical final contents,
//    with >= 8 threads doing mixed insert/erase/get traffic;
//  * merged-scan linearizability: under insert-only (monotone) writers a
//    merged cross-shard range_count is sandwiched between the number of
//    inserts completed before its invocation and the number started before
//    its response, and successive counts never decrease — the two
//    conditions a linearizable counter must satisfy on monotone histories
//    (and per the documented contract, all the merged scan promises).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/pnb_map.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

constexpr unsigned kThreads = 8;
constexpr long kRangePerThread = 256;
constexpr long kKeyRange = kThreads * kRangePerThread;

// Mixed ops on per-thread key partitions: deterministic final state.
template <class MapLike>
void run_partitioned_stream(MapLike& map, unsigned ti, int ops) {
  Xoshiro256 rng(thread_seed(77, ti));
  const long base = static_cast<long>(ti) * kRangePerThread;
  for (int i = 0; i < ops; ++i) {
    const long k = base + static_cast<long>(rng.next_bounded(kRangePerThread));
    switch (rng.next_bounded(4)) {
      case 0:
      case 1:
        map.insert(k, k * 2);
        break;
      case 2:
        map.erase(k);
        break;
      default:
        map.get(k);
        break;
    }
  }
}

TEST(ShardedConcurrent, DifferentialAgainstSinglePnbMap) {
  ShardedPnbMap<long, long, 4> sharded(RangeSplitter<long>{0, kKeyRange});
  PnbMap<long, long> single;

  auto drive = [](auto& map) {
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < kThreads; ++ti) {
      pool.emplace_back([&map, ti] { run_partitioned_stream(map, ti, 20000); });
    }
    for (auto& th : pool) th.join();
  };
  drive(sharded);
  drive(single);

  // Identical per-thread streams on disjoint partitions => identical final
  // contents regardless of interleaving.
  EXPECT_EQ(sharded.size(), single.size());
  EXPECT_EQ(sharded.range_scan(0, kKeyRange - 1),
            single.range_scan(0, kKeyRange - 1));
  for (long k = 0; k < kKeyRange; ++k) {
    ASSERT_EQ(sharded.contains(k), single.contains(k)) << k;
  }
}

TEST(ShardedConcurrent, DifferentialUnevenSplitMixedReaders) {
  // Eight shards cut unevenly and out of step with the writers' 256-key
  // partitions, with hi short of the keyspace so the top shard also takes
  // the clamped keys. Concurrent merged scans cross every shard boundary;
  // their results are checked only for well-formedness here (exactness is
  // the monotone test below).
  ShardedPnbMap<long, long, 8> sharded(RangeSplitter<long>::with_boundaries(
      0, kKeyRange - 300, {100, 101, 700, 1000, 1001, 1200, 1500}, 8));
  PnbMap<long, long> single;

  auto drive = [](auto& map) {
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < kThreads; ++ti) {
      pool.emplace_back([&map, ti] { run_partitioned_stream(map, ti, 12000); });
    }
    pool.emplace_back([&map] {
      for (int i = 0; i < 200; ++i) {
        const auto scan = i % 2 == 0 ? map.range_scan(0, kKeyRange - 1)
                                     : map.range_first(0, kKeyRange - 1, 600);
        long prev = -1;
        for (const auto& [k, v] : scan) {
          ASSERT_GT(k, prev);  // ascending, no duplicates
          ASSERT_EQ(v, k * 2);
          prev = k;
        }
      }
    });
    for (auto& th : pool) th.join();
  };
  drive(sharded);
  drive(single);

  EXPECT_EQ(sharded.range_scan(0, kKeyRange - 1),
            single.range_scan(0, kKeyRange - 1));
}

// The linearizability check for merged cross-shard range_count. Writers only
// insert (the membership history is monotone), so any linearizable count of
// [0, kKeyRange) observed by a scanner must lie in the closed interval
// [completed-before-invocation, started-before-response], and — because a
// later scan's per-shard snapshots are all taken after an earlier scan's —
// consecutive counts per scanner must be non-decreasing.
TEST(ShardedConcurrent, MergedRangeCountIsLinearizableUnderMonotoneInserts) {
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeyRange});

  std::atomic<std::uint64_t> started{0};    // inserts begun
  std::atomic<std::uint64_t> completed{0};  // inserts finished
  std::atomic<bool> stop{false};

  constexpr unsigned kWriters = 6;
  constexpr unsigned kScanners = 4;  // total 10 threads
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < kWriters; ++ti) {
    pool.emplace_back([&map, &started, &completed, ti] {
      // Disjoint residue classes: every insert succeeds (pure growth).
      for (long k = static_cast<long>(ti); k < kKeyRange;
           k += static_cast<long>(kWriters)) {
        started.fetch_add(1, std::memory_order_seq_cst);
        ASSERT_TRUE(map.insert(k, k));
        completed.fetch_add(1, std::memory_order_seq_cst);
      }
    });
  }
  for (unsigned si = 0; si < kScanners; ++si) {
    pool.emplace_back([&map, &started, &completed, &stop] {
      std::uint64_t prev = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t lo_bound =
            completed.load(std::memory_order_seq_cst);
        const std::uint64_t n = map.range_count(0, kKeyRange - 1);
        const std::uint64_t hi_bound = started.load(std::memory_order_seq_cst);
        ASSERT_GE(n, lo_bound) << "merged count lost a completed insert";
        ASSERT_LE(n, hi_bound) << "merged count invented an insert";
        ASSERT_GE(n, prev) << "merged count went backwards";
        prev = n;
      }
    });
  }
  for (unsigned ti = 0; ti < kWriters; ++ti) pool[ti].join();
  stop.store(true, std::memory_order_release);
  for (unsigned ti = kWriters; ti < pool.size(); ++ti) pool[ti].join();

  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeyRange));
}

// Narrow scans under RangeSplitter span a single shard and are therefore
// fully linearizable, even against concurrent erases in that same shard.
TEST(ShardedConcurrent, SingleShardSpanScanSeesExactToggleStates) {
  constexpr long kShardWidth = kKeyRange / 4;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeyRange});
  // The probed pair lives entirely in shard 0 and is toggled atomically
  // enough: k and k+1 are always inserted/erased together by one writer, so
  // a linearizable scan of shard 0 sees 0 or 2 keys — never 1.
  const long k = 10;
  ASSERT_EQ(map.shard_of(k), map.shard_of(k + 1));
  ASSERT_LT(k + 1, kShardWidth);

  std::atomic<bool> stop{false};
  std::thread writer([&map, &stop, k] {
    while (!stop.load(std::memory_order_acquire)) {
      map.insert(k, 1);
      map.insert(k + 1, 1);
      map.erase(k + 1);
      map.erase(k);
    }
  });
  // With both keys in one shard the merged scan is one shard snapshot; the
  // only admissible counts are the instantaneous states 0, 1, 2 — and
  // because insert(k) precedes insert(k+1) and erase(k+1) precedes
  // erase(k), count==1 implies the scan saw k alone, never k+1 alone.
  for (int i = 0; i < 20000; ++i) {
    const auto scan = map.range_scan(k, k + 1);
    if (scan.size() == 1) {
      ASSERT_EQ(scan[0].first, k)
          << "single-shard scan observed k+1 without k";
    } else {
      ASSERT_LE(scan.size(), 2u);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

}  // namespace
}  // namespace pnbbst

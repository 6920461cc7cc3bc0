// Phase/linearization semantics at the API boundary: properties of the
// paper's phase machinery that are observable without white-box access.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common.h"
#include "core/op_stats.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "scan/parallel_scan.h"
#include "shard/sharded_map.h"

namespace pnbbst {
namespace {

using Tree = PnbBst<long>;

TEST(PhaseSemantics, UpdatesDoNotAdvancePhases) {
  Tree t;
  const auto p0 = t.phase();
  for (long k = 0; k < 1000; ++k) t.insert(k);
  for (long k = 0; k < 1000; ++k) t.erase(k);
  EXPECT_EQ(t.phase(), p0);  // only scans open phases
}

// Runs each query once and checks it opened exactly one phase and counted
// exactly one scan (core.*_per_kscan metrics divide by that counter).
template <class Container, class Phase>
void expect_one_phase_and_scan_each(
    Container& c, Phase phase,
    const std::vector<std::function<void(Container&)>>& queries) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto p0 = phase(c);
    const auto scans0 = c.stats().snapshot().scans;
    queries[i](c);
    EXPECT_EQ(phase(c), p0 + 1) << "query #" << i;
    EXPECT_EQ(c.stats().snapshot().scans, scans0 + 1) << "query #" << i;
  }
}

TEST(PhaseSemantics, EveryScanKindAdvancesExactlyOnce) {
  using CountedTree =
      PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  CountedTree t;
  t.insert(1);
  t.insert(5);
  const scan::ParallelScanOptions two_chunks(2);
  expect_one_phase_and_scan_each<CountedTree>(
      t, [](CountedTree& c) { return c.phase(); },
      {
          [](CountedTree& c) { c.range_scan(0, 10); },
          [](CountedTree& c) { c.range_count(0, 10); },
          [](CountedTree& c) { c.range_visit(0, 10, [](long) {}); },
          [](CountedTree& c) {
            c.range_visit(0, 10, [](long) { return false; });
          },
          [](CountedTree& c) { c.range_first(0, 10, 1); },
          [](CountedTree& c) { c.size(); },
          [](CountedTree& c) { c.successor(0); },
          [](CountedTree& c) { c.predecessor(5); },
          [](CountedTree& c) { c.min(); },
          [](CountedTree& c) { c.max(); },
          [&](CountedTree& c) { c.parallel_range_count(0L, 10L, two_chunks); },
          [](CountedTree& c) { auto s = c.snapshot(); },
      });
}

TEST(PhaseSemantics, EveryMapScanKindAdvancesExactlyOnce) {
  using CountedMap =
      PnbMap<long, long, std::less<long>, EpochReclaimer, CountingOpStats>;
  CountedMap m;
  m.insert(1, 10);
  m.insert(5, 50);
  const scan::ParallelScanOptions two_chunks(2);
  expect_one_phase_and_scan_each<CountedMap>(
      m, [](CountedMap& c) { return c.underlying().phase(); },
      {
          [](CountedMap& c) { c.range_scan(0, 10); },
          [](CountedMap& c) { c.range_count(0, 10); },
          [](CountedMap& c) { c.range_visit(0, 10, [](long, long) {}); },
          [](CountedMap& c) {
            c.range_visit(0, 10, [](long, long) { return false; });
          },
          [](CountedMap& c) { c.range_first(0, 10, 1); },
          [](CountedMap& c) { c.size(); },
          [](CountedMap& c) { c.empty(); },
          [](CountedMap& c) { c.successor(0); },
          [](CountedMap& c) { c.predecessor(5); },
          [](CountedMap& c) { c.min(); },
          [](CountedMap& c) { c.max(); },
          [&](CountedMap& c) { c.parallel_range_count(0, 10, two_chunks); },
          [](CountedMap& c) { auto s = c.snapshot(); },
      });
}

TEST(PhaseSemantics, EveryShardedScanKindOpensOnlyItsSpan) {
  // Eight 100-key shards over [0, 800): every ranged query below lies in
  // shard 3, so it must snapshot that shard alone (one phase there, none
  // elsewhere); the unbounded ones snapshot all eight.
  using Sharded = ShardedPnbMap<long, long, 8>;
  constexpr std::size_t kShards = Sharded::shard_count();
  constexpr std::size_t kSpan = 3;
  Sharded m(RangeSplitter<long>{0, 800});
  for (long k = 0; k < 800; k += 10) m.insert(k, k);
  auto phases = [&m] {
    std::array<std::uint64_t, kShards> out{};
    for (std::size_t i = 0; i < kShards; ++i) {
      out[i] = m.shard_ref(i).underlying().phase();
    }
    return out;
  };
  auto expect_opens = [&](const std::vector<std::function<void(Sharded&)>>&
                              queries,
                          bool whole) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto before = phases();
      queries[q](m);
      const auto after = phases();
      for (std::size_t i = 0; i < kShards; ++i) {
        const std::uint64_t opened = whole || i == kSpan ? 1 : 0;
        EXPECT_EQ(after[i], before[i] + opened)
            << "query #" << q << " shard " << i;
      }
    }
  };
  const scan::ParallelScanOptions two_chunks(2);
  expect_opens(
      {
          [](Sharded& c) { c.range_scan(310, 390); },
          [](Sharded& c) { c.range_count(310, 390); },
          [](Sharded& c) { c.range_visit(310, 390, [](long, long) {}); },
          [](Sharded& c) {
            c.range_visit(310, 390, [](long, long) { return false; });
          },
          [](Sharded& c) { c.range_first(310, 390, 1); },
          [&](Sharded& c) { c.parallel_range_count(310, 390, two_chunks); },
      },
      /*whole=*/false);
  expect_opens(
      {
          [](Sharded& c) { c.size(); },
          [](Sharded& c) { auto s = c.snapshot(); },
      },
      /*whole=*/true);
}

TEST(PhaseSemantics, UpdatesInOnePhaseShareSequenceNumbers) {
  // All updates between two scans land in the same phase: a snapshot taken
  // at phase P sees all of them or (if taken before) none.
  Tree t;
  auto before = t.snapshot();
  for (long k = 0; k < 100; ++k) t.insert(k);
  auto after = t.snapshot();
  EXPECT_EQ(before.size(), 0u);
  EXPECT_EQ(after.size(), 100u);
}

TEST(PhaseSemantics, ConcurrentScansGetUniquePhases) {
  // fetch_add gives each scan its own phase; phases observed via snapshots
  // from many threads must be strictly increasing per thread and globally
  // unique.
  Tree t;
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    pool.emplace_back([&, ti] {
      for (int i = 0; i < kPerThread; ++i) {
        auto s = t.snapshot();
        seen[ti].push_back(s.phase());
      }
    });
  }
  for (auto& th : pool) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : seen) {
    for (std::size_t i = 1; i < v.size(); ++i) ASSERT_LT(v[i - 1], v[i]);
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(PhaseSemantics, ScanSeesEverythingLinearizedBeforeIt) {
  // Single-threaded sanity for the handshaking guarantee: an update that
  // returned before the scan started must be visible.
  Tree t;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(t.insert(round));
    ASSERT_EQ(t.range_count(0, round), static_cast<std::size_t>(round + 1));
  }
}

TEST(PhaseSemantics, SnapshotPhaseEqualsPreIncrementCounter) {
  Tree t;
  const auto p = t.phase();
  auto s = t.snapshot();
  EXPECT_EQ(s.phase(), p);       // snapshot owns the phase it closed
  EXPECT_EQ(t.phase(), p + 1);   // and opened the next one
}

// Interleaved writers and a scanning thread: every scan's result size must
// lie between the minimum and maximum possible set size at its phase
// (coarse but effective sandwich bound under monotone growth).
//
// Every size() opens a phase, and an insert whose handshake sees a new phase
// retries (updates are lock-free, not wait-free). On the right spine these
// ascending keys build, a scanner that never pauses can starve the writer for
// minutes. So the scanner paces itself: one scan per insert it observes. Each
// insert then retries at most once, and scans keep running beside the writer
// until its last insert.
TEST(PhaseSemantics, ScanSizesSandwichedUnderMonotoneGrowth) {
  Tree t;
  std::atomic<long> inserted{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (long k = 0; k < 30000; ++k) {
      t.insert(k);
      inserted.store(k + 1, std::memory_order_release);
    }
    done = true;
  });
  long scanned_at = -1;
  while (!done.load()) {
    const long lo = inserted.load(std::memory_order_acquire);
    if (lo == scanned_at) {
      std::this_thread::yield();
      continue;
    }
    scanned_at = lo;
    const auto n = t.size();
    const long hi = inserted.load(std::memory_order_acquire);
    // size() is linearized between the two reads of `inserted`.
    ASSERT_GE(n, static_cast<std::size_t>(lo));
    ASSERT_LE(n, static_cast<std::size_t>(hi) + 1);
  }
  writer.join();
}

}  // namespace
}  // namespace pnbbst

// Loss-free reshard under writer churn (stress label).
//
// The PR-5 contract (DESIGN.md §9): a write accepted during a migration is
// recorded in the shard's write-intent ledger before it touches the
// pre-reshard world, and the ledger is replayed in order into the
// replacement maps before the atomic cutover — so NOTHING acknowledged is
// lost, without quiescing writers. These suites drive that contract to
// failure if any op can slip through:
//
//  * N writer threads with disjoint key stripes run acked insert / erase /
//    assign streams against their own sequential models while the main
//    thread churns reshard(), to new routings and to the current one
//    (which rebuilds every shard in place); every ack must match the
//    single-writer model, and the final merged scan must equal the merged
//    models exactly;
//  * a batcher streams apply_batch bursts of brand-new unique keys across
//    the churn — every batch must report full insertion, and the final
//    count must equal everything ever acknowledged;
//  * snapshots taken mid-churn stay repeatable, also while writers run and
//    across cutovers, and once every snapshot is dropped and the reclaimer
//    has run, the retired gauges read zero;
//  * the maintained shard sizes (shard_sizes(), no snapshot walk) agree
//    with the snapshot census once writers quiesce, across every kind of
//    write and every kind of migration.
//
// Swept under ASan+UBSan and TSan (CI runs the stress label in the
// sanitizer jobs).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "ingest/batch_apply.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using ingest::BatchOp;
using scan::ParallelScanOptions;

TEST(ReshardConcurrent, AckedWritesSurviveReshardAndRebuildChurn) {
  constexpr unsigned kWriters = 3;
  constexpr long kStripe = 4000;
  constexpr long kKeys = kWriters * kStripe;
  constexpr int kOpsPerWriter = 20000;

  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});

  std::atomic<unsigned> done{0};
  std::vector<std::map<long, long>> models(kWriters);
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kWriters; ++t) {
    writers.emplace_back([&map, &models, &done, t] {
      // Writer t owns [base, base + kStripe): per-key single writer, so
      // every ack is deterministic against the local model — any write
      // lost at a cutover surfaces as an ack mismatch or a final diff.
      std::map<long, long>& model = models[t];
      Xoshiro256 rng(thread_seed(2026, t));
      const long base = static_cast<long>(t) * kStripe;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const long k = base + static_cast<long>(rng.next_bounded(kStripe));
        const long v = static_cast<long>(i) * 8 + static_cast<long>(t);
        switch (rng.next_bounded(10)) {
          case 0:
          case 1:
          case 2:
          case 3: {  // insert-if-absent
            const bool expect = model.find(k) == model.end();
            ASSERT_EQ(map.insert(k, v), expect)
                << "insert ack diverged, key " << k << " op " << i;
            if (expect) model.emplace(k, v);
            break;
          }
          case 4:
          case 5:
          case 6: {  // erase
            const bool expect = model.erase(k) > 0;
            ASSERT_EQ(map.erase(k), expect)
                << "erase ack diverged, key " << k << " op " << i;
            break;
          }
          default: {  // assign: erase then insert, each recorded alone
            const bool expect = model.find(k) != model.end();
            ASSERT_EQ(map.assign(k, v), expect)
                << "assign ack diverged, key " << k << " op " << i;
            model[k] = v;
            break;
          }
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  // Churn migrations until every writer finished: reshards to three
  // routings (so key→shard ownership really moves) alternate with
  // reshards to the current one. The floor of 8 keeps the churn meaningful
  // even when a fast scheduler drains the writers early; post-writer
  // migrations must not change the content either.
  int migrations = 0;
  while (done.load(std::memory_order_acquire) < kWriters ||
         migrations < 8) {
    switch (migrations % 4) {
      case 0:
        map.reshard(RangeSplitter<long>{0, kKeys});
        break;
      case 1:
        map.reshard(map.splitter());
        break;
      case 2:
        map.reshard(RangeSplitter<long>{0, kKeys / 2});
        break;
      default:
        map.reshard(RangeSplitter<long>{0, 4 * kKeys});
        break;
    }
    ++migrations;
  }
  for (auto& th : writers) th.join();

  // Final merged scan == union of the writers' models: zero lost and zero
  // phantom acknowledged writes across every cutover.
  std::map<long, long> expect;
  for (const auto& m : models) expect.insert(m.begin(), m.end());
  const auto scan = map.range_scan(0, 4 * kKeys);
  ASSERT_EQ(scan.size(), expect.size());
  auto it = expect.begin();
  for (std::size_t i = 0; i < scan.size(); ++i, ++it) {
    ASSERT_EQ(scan[i].first, it->first) << "key set diverged at " << i;
    ASSERT_EQ(scan[i].second, it->second)
        << "value diverged at key " << it->first;
  }
  // Nothing pins the retired generations anymore.
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
}

TEST(ReshardConcurrent, BatchedWritesSurviveReshardChurn) {
  // A batcher inserts bursts of brand-new unique keys (so each burst must
  // report full insertion) while migrations churn. Any batched op dropped
  // at a cutover shows up as an ack shortfall or a missing key at the end.
  // A burst is two ingest grains, so one that lands in a single shard
  // also fans out into parallel runs inside that shard.
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 100000});
  constexpr int kBursts = 30;
  constexpr long kBurst = 2 * scan::kIngestGrain;
  scan::ScanExecutor ex(2);

  std::atomic<bool> done{false};
  std::thread batcher([&map, &ex, &done] {
    for (int b = 0; b < kBursts; ++b) {
      std::vector<BatchOp<long, long>> ops;
      ops.reserve(kBurst);
      const long base = static_cast<long>(b) * kBurst;
      for (long i = 0; i < kBurst; ++i) {
        ops.push_back(BatchOp<long, long>::insert(base + i, base + i));
      }
      const auto r =
          map.apply_batch(std::move(ops), ParallelScanOptions(2, ex));
      ASSERT_TRUE(r.admitted());
      ASSERT_EQ(r.inserted, static_cast<std::size_t>(kBurst))
          << "burst " << b << " lost inserts to a cutover";
    }
    done.store(true, std::memory_order_release);
  });

  int migrations = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (migrations % 2 == 0) {
      map.reshard(RangeSplitter<long>{0, 60000 + (migrations % 5) * 20000});
    } else {
      map.reshard(map.splitter());
    }
    ++migrations;
  }
  batcher.join();
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0)) << "bursts never fanned out";

  constexpr std::size_t kTotal = static_cast<std::size_t>(kBursts) * kBurst;
  EXPECT_EQ(map.range_count(0, kBursts * kBurst), kTotal);
  const auto scan = map.range_scan(0, kBursts * kBurst);
  ASSERT_EQ(scan.size(), kTotal);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    ASSERT_EQ(scan[i].first, static_cast<long>(i));
    ASSERT_EQ(scan[i].second, static_cast<long>(i));
  }
}

TEST(ReshardConcurrent, SnapshotsStayRepeatableAndReclamationCompletes) {
  // Snapshot holders race the migration churn: each holder repeatedly
  // takes a composite snapshot, asserts it is internally repeatable (two
  // reads agree — the pinned world cannot be freed under it), then drops
  // it. When everyone is done and the reclaimer has run, nothing is
  // retained.
  constexpr long kKeys = 6000;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});
  std::vector<std::pair<long, long>> items;
  for (long k = 0; k < kKeys; ++k) items.emplace_back(k, k * 5);
  map.bulk_load(std::move(items));

  std::atomic<bool> stop{false};
  std::vector<std::thread> holders;
  for (unsigned t = 0; t < 3; ++t) {
    holders.emplace_back([&map, &stop, t] {
      Xoshiro256 rng(thread_seed(501, t));
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = map.snapshot();
        const std::size_t n1 = snap.size();
        const long probe = static_cast<long>(rng.next_bounded(kKeys));
        const auto v1 = snap.get(probe);
        ASSERT_EQ(snap.size(), n1) << "snapshot size not repeatable";
        ASSERT_EQ(snap.get(probe), v1) << "snapshot read not repeatable";
        ASSERT_EQ(n1, static_cast<std::size_t>(kKeys));
        ASSERT_EQ(v1.value_or(-1), probe * 5);
      }
    });
  }

  for (int round = 0; round < 12; ++round) {
    if (round % 3 == 2) {
      map.reshard(map.splitter());
    } else {
      map.reshard(RangeSplitter<long>{0, kKeys + round * 1000});
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : holders) th.join();

  // Every snapshot is gone, so nothing pins the retired generations.
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
}

TEST(ReshardConcurrent, PinnedSnapshotsStayStableAcrossCutoversUnderWrites) {
  // Four holders open composite snapshots (and one-shot merged counts)
  // while two writers churn the live map and 50 reshards fire. A holder
  // keeps its handle until a cutover lands or a bound runs out, so many
  // handles outlive the table they loaded: their epoch pin alone must keep
  // that generation readable, and every repeated read must agree.
  constexpr long kKeys = 4000;
  constexpr int kReshards = 50;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});
  std::vector<std::pair<long, long>> items;
  for (long k = 0; k < kKeys; k += 2) items.emplace_back(k, k);
  map.bulk_load(std::move(items));

  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < 2; ++t) {
    pool.emplace_back([&map, &stop, t] {
      Xoshiro256 rng(thread_seed(811, t));
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.next_bounded(kKeys));
        if (rng.next_bounded(2) == 0) {
          map.insert(k, k);
        } else {
          map.erase(k);
        }
      }
    });
  }
  std::atomic<std::uint64_t> crossed{0};
  for (unsigned t = 0; t < 4; ++t) {
    pool.emplace_back([&map, &stop, &crossed, t] {
      Xoshiro256 rng(thread_seed(812, t));
      while (!stop.load(std::memory_order_acquire)) {
        const long lo = static_cast<long>(rng.next_bounded(kKeys));
        const long hi = lo + static_cast<long>(rng.next_bounded(kKeys / 4));
        map.range_count(lo, hi);  // one-shot merged scan, same pin path
        const std::uint64_t gen = map.lifetime().current_generation();
        auto snap = map.snapshot();
        const std::size_t n = snap.size();
        const std::size_t in_range = snap.range_count(lo, hi);
        for (int spin = 0;
             spin < 200 && map.lifetime().current_generation() == gen;
             ++spin) {
          std::this_thread::yield();
        }
        if (map.lifetime().current_generation() != gen) {
          crossed.fetch_add(1, std::memory_order_relaxed);
        }
        ASSERT_EQ(snap.size(), n) << "snapshot size moved";
        ASSERT_EQ(snap.range_count(lo, hi), in_range);
        const auto all = snap.range_scan(0, kKeys - 1);
        ASSERT_EQ(all.size(), n);
        for (const auto& [k, v] : all) ASSERT_EQ(k, v);
      }
    });
  }

  for (int round = 0; round < kReshards; ++round) {
    switch (round % 3) {
      case 0:
        map.reshard(RangeSplitter<long>{0, kKeys / 2 + round * 50});
        break;
      case 1:
        map.reshard(map.splitter());
        break;
      default:
        map.reshard(RangeSplitter<long>::with_boundaries(
            0, kKeys, {kKeys / 8 + round, kKeys / 2, kKeys - 64}, 4));
        break;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  EXPECT_EQ(map.lifetime().current_generation(),
            static_cast<std::uint64_t>(kReshards));
  EXPECT_GT(crossed.load(), 0u) << "no snapshot outlived a cutover";
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
}

TEST(ReshardConcurrent, ShardSizesMatchSnapshotsAfterChurnAndReshard) {
  // Overlapping writers on purpose: the counts only have to follow the
  // successful ops, whoever wins each race.
  constexpr long kKeys = 6000;
  constexpr int kOps = 8000;
  using Op = BatchOp<long, long>;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, kKeys});

  std::atomic<unsigned> done{0};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 2; ++t) {
    writers.emplace_back([&map, &done, t] {
      Xoshiro256 rng(thread_seed(733, t));
      for (int i = 0; i < kOps; ++i) {
        const long k = static_cast<long>(rng.next_bounded(kKeys));
        switch (rng.next_bounded(3)) {
          case 0:
            map.insert(k, i);
            break;
          case 1:
            map.erase(k);
            break;
          default:
            map.assign(k, i);
            break;
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  writers.emplace_back([&map, &done] {
    Xoshiro256 rng(734);
    for (int b = 0; b < kOps / 128; ++b) {
      std::vector<Op> ops;
      for (int i = 0; i < 128; ++i) {
        const long k = static_cast<long>(rng.next_bounded(kKeys));
        ops.push_back(rng.next_bounded(2) == 0 ? Op::insert(k, b)
                                               : Op::erase(k));
      }
      map.apply_batch(std::move(ops));
    }
    done.fetch_add(1, std::memory_order_release);
  });

  int migrations = 0;
  while (done.load(std::memory_order_acquire) < writers.size() ||
         migrations < 6) {
    if (migrations % 2 == 0) {
      map.reshard(RangeSplitter<long>::with_boundaries(
          0, kKeys, {kKeys / 8 + migrations, kKeys / 2, kKeys - 100}, 4));
    } else {
      map.reshard(map.splitter());
    }
    ++migrations;
  }
  for (auto& th : writers) th.join();

  std::array<std::uint64_t, 4> phases{};
  for (std::size_t i = 0; i < 4; ++i) {
    phases[i] = map.shard_ref(i).underlying().phase();
  }
  const auto sizes = map.shard_sizes();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    // shard_sizes() opened no phase on any shard.
    EXPECT_EQ(map.shard_ref(i).underlying().phase(), phases[i]) << i;
    EXPECT_EQ(sizes[i], map.shard_ref(i).snapshot().size()) << "shard " << i;
    sum += sizes[i];
  }
  EXPECT_EQ(sum, map.snapshot().size());
}

}  // namespace
}  // namespace pnbbst

// Linearizability-oriented properties of RangeScan running against
// concurrent updates — the heart of the paper's contribution.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pnb_bst.h"

namespace pnbbst {
namespace {

using Tree = PnbBst<long>;

// Prefix property: one writer inserts 0,1,2,... in order. Any linearizable
// scan must observe a *prefix* of that sequence — a gap would mean the scan
// missed an update linearized before one it observed.
//
// Each scan opens a phase, and an insert whose handshake sees a new phase
// retries; on the right spine these keys build, a scanner that never pauses
// can starve the writer for minutes. The scanner paces itself to one scan per
// insert it observes, so scans run beside the writer until its last insert.
TEST(PnbScanConcurrent, InsertOnlyScansSeePrefixes) {
  Tree t;
  std::atomic<long> inserted{0};
  std::atomic<bool> done{false};
  constexpr long kMax = 30000;
  std::thread writer([&] {
    for (long k = 0; k < kMax; ++k) {
      t.insert(k);
      inserted.store(k + 1, std::memory_order_release);
    }
    done = true;
  });
  std::size_t scans = 0;
  long scanned_at = -1;
  while (!done.load()) {
    const long seen = inserted.load(std::memory_order_acquire);
    if (seen == scanned_at) {
      std::this_thread::yield();
      continue;
    }
    scanned_at = seen;
    const auto v = t.range_scan(0, kMax);
    // Must be exactly 0..n-1 for some n.
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], static_cast<long>(i)) << "gap in scan " << scans;
    }
    ++scans;
  }
  writer.join();
  EXPECT_GT(scans, 0u);
  EXPECT_EQ(t.range_scan(0, kMax).size(), static_cast<std::size_t>(kMax));
}

// Delete-only dual: a writer erases keys in ascending order; every scan
// must observe a *suffix* of the key sequence.
TEST(PnbScanConcurrent, DeleteOnlyScansSeeSuffixes) {
  Tree t;
  constexpr long kMax = 20000;
  for (long k = 0; k < kMax; ++k) t.insert(k);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (long k = 0; k < kMax; ++k) t.erase(k);
    done = true;
  });
  while (!done.load()) {
    const auto v = t.range_scan(0, kMax);
    for (std::size_t i = 1; i < v.size(); ++i) {
      ASSERT_EQ(v[i], v[i - 1] + 1) << "hole in suffix";
    }
    if (!v.empty()) {
      ASSERT_EQ(v.back(), kMax - 1);
    }
  }
  writer.join();
  EXPECT_TRUE(t.range_scan(0, kMax).empty());
}

// Atomic-pair property: writers keep the invariant "2k present iff 2k+1
// present" by always inserting/erasing the pair in sequence. A scan that
// sees exactly one element of a pair would be tearing the writer's two
// linearized updates... which is legal for a linearizable set (the two
// updates are separate operations). What is NOT legal is seeing the second
// op of a pair but not the first: writers insert 2k before 2k+1 and erase
// 2k+1 before 2k, so a scan may see {2k} alone but never {2k+1} alone.
TEST(PnbScanConcurrent, PairOrderingNeverInverted) {
  Tree t;
  constexpr long kPairs = 64;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned ti = 0; ti < 2; ++ti) {
    writers.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(4, ti));
      while (!stop) {
        // Each pair owned by one writer: even pairs by 0, odd by 1.
        long pair = static_cast<long>(rng.next_bounded(kPairs / 2)) * 2 +
                    static_cast<long>(ti);
        const long a = 2 * pair, b = 2 * pair + 1;
        if (rng.next_bounded(2)) {
          t.insert(a);
          t.insert(b);
        } else {
          t.erase(b);
          t.erase(a);
        }
      }
    });
  }
  for (int s = 0; s < 300; ++s) {
    const auto v = t.range_scan(0, 2 * kPairs);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] % 2 == 1) {
        // odd key present => its even partner must be right before it
        ASSERT_TRUE(i > 0 && v[i - 1] == v[i] - 1)
            << "scan saw " << v[i] << " without " << v[i] - 1;
      }
    }
  }
  stop = true;
  for (auto& th : writers) th.join();
}

// Wait-freedom smoke test: scans complete while updaters run full tilt.
// (A snap-collector-style scan could be starved by continuous inserts
// ahead of the iterator; the paper's Theorem 47 rules that out.)
TEST(PnbScanConcurrent, ScansCompleteUnderContinuousUpdates) {
  Tree t;
  for (long k = 0; k < 1024; ++k) t.insert(k);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned ti = 0; ti < 4; ++ti) {
    writers.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(5, ti));
      while (!stop) {
        const long k = static_cast<long>(rng.next_bounded(4096));
        if (rng.next_bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (int s = 0; s < 200; ++s) {
    const auto n = t.range_count(0, 4096);
    ASSERT_LE(n, 4096u);
  }
  stop = true;
  for (auto& th : writers) th.join();
}

// Scans sorted and duplicate-free under churn.
TEST(PnbScanConcurrent, ScanAlwaysSortedUnique) {
  Tree t;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned ti = 0; ti < 3; ++ti) {
    writers.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(6, ti));
      while (!stop) {
        const long k = static_cast<long>(rng.next_bounded(512));
        if (rng.next_bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (int s = 0; s < 500; ++s) {
    auto v = t.range_scan(100, 400);
    ASSERT_TRUE(test::is_sorted_unique(v)) << "scan " << s;
    for (long k : v) {
      ASSERT_GE(k, 100);
      ASSERT_LE(k, 400);
    }
  }
  stop = true;
  for (auto& th : writers) th.join();
}

// Concurrent scans from many threads while updates run.
TEST(PnbScanConcurrent, ParallelScannersAgreeOnInvariants) {
  Tree t;
  for (long k = 0; k < 256; k += 2) t.insert(k);  // evens only
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // Updaters touch only even keys; odd keys must never appear in scans.
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 2; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(8, ti));
      while (!stop) {
        const long k = static_cast<long>(rng.next_bounded(128)) * 2;
        if (rng.next_bounded(2)) {
          t.insert(k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  for (unsigned ti = 0; ti < 3; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(9, ti));
      for (int s = 0; s < 200 && !failed; ++s) {
        const long lo = static_cast<long>(rng.next_bounded(256));
        auto v = t.range_scan(lo, lo + 64);
        for (long k : v) {
          if (k % 2 != 0 || k < lo || k > lo + 64) failed = true;
        }
      }
    });
  }
  // Let scanners finish; they have bounded work (wait-free).
  for (std::size_t i = 2; i < pool.size(); ++i) pool[i].join();
  stop = true;
  pool[0].join();
  pool[1].join();
  EXPECT_FALSE(failed.load());
}

// Snapshot taken mid-churn stays internally consistent.
TEST(PnbScanConcurrent, SnapshotUnderChurnIsFrozen) {
  Tree t;
  for (long k = 0; k < 128; ++k) t.insert(k);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(10);
    while (!stop) {
      const long k = static_cast<long>(rng.next_bounded(128));
      if (rng.next_bounded(2)) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto snap = t.snapshot();
    const auto size1 = snap.size();
    const auto count1 = snap.range_count(0, 128);
    const auto size2 = snap.size();
    ASSERT_EQ(size1, count1);
    ASSERT_EQ(size1, size2);  // repeated reads of a snapshot never change
  }
  stop = true;
  writer.join();
}

}  // namespace
}  // namespace pnbbst

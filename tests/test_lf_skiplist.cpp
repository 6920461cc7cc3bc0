#include "baseline/lf_skiplist.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common.h"

namespace pnbbst {
namespace {

using List = LfSkipList<long>;

TEST(LfSkipList, Empty) {
  List s;
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.erase(0));
  EXPECT_EQ(s.size(), 0u);
}

TEST(LfSkipList, BasicOps) {
  List s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  EXPECT_TRUE(s.erase(5));
  EXPECT_FALSE(s.erase(5));
  EXPECT_FALSE(s.contains(5));
}

TEST(LfSkipList, ExtremeKeys) {
  List s;
  EXPECT_TRUE(s.insert(std::numeric_limits<long>::min()));
  EXPECT_TRUE(s.insert(std::numeric_limits<long>::max()));
  EXPECT_TRUE(s.contains(std::numeric_limits<long>::min()));
  EXPECT_TRUE(s.contains(std::numeric_limits<long>::max()));
  EXPECT_TRUE(s.erase(std::numeric_limits<long>::min()));
}

class SkipModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SkipModelFuzz, MatchesStdSet) {
  List s;
  const auto model = test::run_model_ops(s, GetParam(), 6000, 200);
  EXPECT_EQ(s.size(), model.size());
  std::vector<long> expect(model.begin(), model.end());
  EXPECT_EQ(s.range_scan(0, 200), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipModelFuzz,
                         ::testing::Values(71, 72, 73, 74));

TEST(LfSkipList, RangeScanBounds) {
  List s;
  for (long k = 0; k < 100; k += 5) s.insert(k);
  EXPECT_EQ(s.range_scan(10, 30),
            (std::vector<long>{10, 15, 20, 25, 30}));
  EXPECT_EQ(s.range_scan(11, 14), (std::vector<long>{}));
  EXPECT_EQ(s.range_scan(95, 1000), (std::vector<long>{95}));
}

TEST(LfSkipList, PartitionedConcurrentStress) {
  EpochReclaimer dom;
  {
    LfSkipList<long, std::less<long>, EpochReclaimer> s(dom);
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < 4; ++ti) {
      pool.emplace_back([&, ti] {
        std::set<long> model;
        Xoshiro256 rng(thread_seed(900, ti));
        const long base = static_cast<long>(ti) * 128;
        for (int i = 0; i < 12000 && !failed; ++i) {
          const long k = base + static_cast<long>(rng.next_bounded(128));
          switch (rng.next_bounded(3)) {
            case 0:
              if (s.insert(k) != model.insert(k).second) failed = true;
              break;
            case 1:
              if (s.erase(k) != (model.erase(k) > 0)) failed = true;
              break;
            default:
              if (s.contains(k) != (model.count(k) > 0)) failed = true;
              break;
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_FALSE(failed.load());
  }
  dom.quiescent_flush();
  EXPECT_EQ(dom.pending_count(), 0u);
}

TEST(LfSkipList, SingleKeyContention) {
  List s;
  std::atomic<long> net{0};
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 8; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(901, ti));
      long local = 0;
      for (int i = 0; i < 4000; ++i) {
        if (rng.next_bounded(2)) {
          if (s.insert(13)) ++local;
        } else {
          if (s.erase(13)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  const long n = net.load();
  ASSERT_TRUE(n == 0 || n == 1) << n;
  EXPECT_EQ(s.contains(13), n == 1);
}

// Remove/reinsert hammering of the same keys — the workload that triggers
// the reinsertion-race use-after-free the unlink-by-identity sweep exists
// to prevent (run under ASan to prove it).
TEST(LfSkipList, ReinsertionChurn) {
  EpochReclaimer dom;
  {
    LfSkipList<long, std::less<long>, EpochReclaimer> s(dom);
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < 6; ++ti) {
      pool.emplace_back([&, ti] {
        Xoshiro256 rng(thread_seed(902, ti));
        for (int i = 0; i < 20000; ++i) {
          const long k = static_cast<long>(rng.next_bounded(8));  // hot keys
          if (rng.next_bounded(2)) {
            s.insert(k);
          } else {
            s.erase(k);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_LE(s.size(), 8u);
  }
  dom.quiescent_flush();
  EXPECT_EQ(dom.pending_count(), 0u);
}

TEST(LfSkipList, ExactlyOneWinnerPerKey) {
  List s;
  std::atomic<long> wins{0};
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 8; ++ti) {
    pool.emplace_back([&] {
      long local = 0;
      for (long k = 0; k < 300; ++k) {
        if (s.insert(k)) ++local;
      }
      wins.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(wins.load(), 300);
  EXPECT_EQ(s.size(), 300u);
}

TEST(LfSkipList, ReclamationBoundedUnderChurn) {
  EpochReclaimer dom;
  LfSkipList<long, std::less<long>, EpochReclaimer> s(dom);
  Xoshiro256 rng(903);
  for (int i = 0; i < 100000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(64));
    if (rng.next_bounded(2)) {
      s.insert(k);
    } else {
      s.erase(k);
    }
  }
  EXPECT_GT(dom.freed_count(), dom.retired_count() / 2);
}

}  // namespace
}  // namespace pnbbst

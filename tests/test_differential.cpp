// Differential fuzzing: the same deterministic operation stream applied to
// every structure; any divergence in any return value is a bug in one of
// them. Stronger than per-structure model tests because it also catches
// systematic misunderstandings shared between a structure and its test.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "common.h"
#include "core/pnb_bst.h"
#include "nbbst/nb_bst.h"

namespace pnbbst {
namespace {

struct DiffParam {
  std::uint64_t seed;
  int ops;
  long key_range;
};

class DifferentialFuzz : public ::testing::TestWithParam<DiffParam> {};

TEST_P(DifferentialFuzz, AllStructuresAgreeSequentially) {
  const auto p = GetParam();
  PnbBst<long> pnb;
  NbBst<long> nb;
  LockedBst<long> locked;
  CowBst<long> cow;
  LfSkipList<long> skip;
  std::set<long> model;

  Xoshiro256 rng(p.seed);
  for (int i = 0; i < p.ops; ++i) {
    const long k = static_cast<long>(
        rng.next_bounded(static_cast<std::uint64_t>(p.key_range)));
    switch (rng.next_bounded(4)) {
      case 0: {
        const bool expect = model.insert(k).second;
        ASSERT_EQ(pnb.insert(k), expect) << "pnb op " << i;
        ASSERT_EQ(nb.insert(k), expect) << "nb op " << i;
        ASSERT_EQ(locked.insert(k), expect) << "locked op " << i;
        ASSERT_EQ(cow.insert(k), expect) << "cow op " << i;
        ASSERT_EQ(skip.insert(k), expect) << "skip op " << i;
        break;
      }
      case 1: {
        const bool expect = model.erase(k) > 0;
        ASSERT_EQ(pnb.erase(k), expect) << "pnb op " << i;
        ASSERT_EQ(nb.erase(k), expect) << "nb op " << i;
        ASSERT_EQ(locked.erase(k), expect) << "locked op " << i;
        ASSERT_EQ(cow.erase(k), expect) << "cow op " << i;
        ASSERT_EQ(skip.erase(k), expect) << "skip op " << i;
        break;
      }
      case 2: {
        const bool expect = model.count(k) > 0;
        ASSERT_EQ(pnb.contains(k), expect) << "pnb op " << i;
        ASSERT_EQ(nb.contains(k), expect) << "nb op " << i;
        ASSERT_EQ(locked.contains(k), expect) << "locked op " << i;
        ASSERT_EQ(cow.contains(k), expect) << "cow op " << i;
        ASSERT_EQ(skip.contains(k), expect) << "skip op " << i;
        break;
      }
      default: {
        const long hi = k + static_cast<long>(rng.next_bounded(64));
        const auto expect = test::model_range(model, k, hi).size();
        ASSERT_EQ(pnb.range_count(k, hi), expect) << "pnb op " << i;
        ASSERT_EQ(nb.range_count(k, hi), expect) << "nb op " << i;
        ASSERT_EQ(locked.range_count(k, hi), expect) << "locked op " << i;
        ASSERT_EQ(cow.range_count(k, hi), expect) << "cow op " << i;
        ASSERT_EQ(skip.range_count(k, hi), expect) << "skip op " << i;
        // range_first with n = 0, a limit inside the range and one past
        // it, cycling with the op index so the streams stay unchanged.
        const auto n = static_cast<std::size_t>(i % 9);
        auto first = test::model_range(model, k, hi);
        first.resize(std::min(n, first.size()));
        ASSERT_EQ(pnb.range_first(k, hi, n), first) << "pnb op " << i;
        ASSERT_EQ(nb.range_first(k, hi, n), first) << "nb op " << i;
        ASSERT_EQ(locked.range_first(k, hi, n), first) << "locked op " << i;
        ASSERT_EQ(cow.range_first(k, hi, n), first) << "cow op " << i;
        ASSERT_EQ(skip.range_first(k, hi, n), first) << "skip op " << i;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, DifferentialFuzz,
    ::testing::Values(DiffParam{1001, 4000, 64}, DiffParam{1002, 4000, 512},
                      DiffParam{1003, 8000, 16}, DiffParam{1004, 2000, 100000},
                      DiffParam{1005, 6000, 256}));

// Concurrent differential: partitioned keys, every structure driven by the
// same per-thread streams; final contents must be identical.
TEST(DifferentialConcurrent, FinalContentsAgree) {
  PnbBst<long> pnb;
  NbBst<long> nb;
  LfSkipList<long> skip;
  constexpr unsigned kThreads = 4;
  constexpr long kRange = 128;

  auto run = [&](auto& tree) {
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < kThreads; ++ti) {
      pool.emplace_back([&, ti] {
        Xoshiro256 rng(thread_seed(4242, ti));
        const long base = static_cast<long>(ti) * kRange;
        for (int i = 0; i < 10000; ++i) {
          const long k = base + static_cast<long>(rng.next_bounded(kRange));
          if (rng.next_bounded(2)) {
            tree.insert(k);
          } else {
            tree.erase(k);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  };
  run(pnb);
  run(nb);
  run(skip);

  // Identical per-thread deterministic streams on disjoint partitions must
  // leave identical final sets regardless of interleaving.
  for (long k = 0; k < static_cast<long>(kThreads) * kRange; ++k) {
    const bool in_pnb = pnb.contains(k);
    ASSERT_EQ(nb.contains(k), in_pnb) << k;
    ASSERT_EQ(skip.contains(k), in_pnb) << k;
  }
}

}  // namespace
}  // namespace pnbbst

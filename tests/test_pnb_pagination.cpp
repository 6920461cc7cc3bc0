// Early-terminating scans (range_visit with a bool visitor, range_first):
// pagination semantics sequentially and under concurrent updates.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pnb_bst.h"

namespace pnbbst {
namespace {

using Tree = PnbBst<long>;

TEST(Pagination, FirstNReturnsSmallest) {
  Tree t;
  for (long k = 100; k > 0; --k) t.insert(k * 2);  // evens 2..200
  EXPECT_EQ(t.range_first(0, 1000, 3), (std::vector<long>{2, 4, 6}));
  EXPECT_EQ(t.range_first(50, 1000, 2), (std::vector<long>{50, 52}));
}

TEST(Pagination, NLargerThanRangeReturnsAll) {
  Tree t;
  for (long k = 0; k < 5; ++k) t.insert(k);
  EXPECT_EQ(t.range_first(0, 10, 100), (std::vector<long>{0, 1, 2, 3, 4}));
}

TEST(Pagination, ZeroNReturnsEmptyWithoutScanning) {
  Tree t;
  t.insert(1);
  EXPECT_TRUE(t.range_first(0, 10, 0).empty());
}

TEST(Pagination, RangeVisitStopsExactly) {
  Tree t;
  for (long k = 0; k < 100; ++k) t.insert(k);
  int visited = 0;
  t.range_visit(0, 99, [&visited](long) { return ++visited < 7; });
  EXPECT_EQ(visited, 7);
}

TEST(Pagination, PaginateThroughWholeRange) {
  Tree t;
  std::set<long> model;
  Xoshiro256 rng(42);
  for (int i = 0; i < 1000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(5000));
    t.insert(k);
    model.insert(k);
  }
  // Page through with page size 37 using "next page starts after last key".
  std::vector<long> collected;
  long cursor = 0;
  for (;;) {
    auto page = t.range_first(cursor, 4999, 37);
    if (page.empty()) break;
    collected.insert(collected.end(), page.begin(), page.end());
    cursor = page.back() + 1;
  }
  EXPECT_EQ(collected, std::vector<long>(model.begin(), model.end()));
}

TEST(Pagination, SnapshotPagesAreStable) {
  Tree t;
  for (long k = 0; k < 50; ++k) t.insert(k);
  auto snap = t.snapshot();
  for (long k = 0; k < 50; k += 2) t.erase(k);
  EXPECT_EQ(snap.range_first(0, 49, 4), (std::vector<long>{0, 1, 2, 3}));
  EXPECT_EQ(t.range_first(0, 49, 4), (std::vector<long>{1, 3, 5, 7}));
}

TEST(Pagination, PrefixPropertyUnderInsertOnlyChurn) {
  // Like the scan prefix test: with one writer inserting 0,1,2,... in
  // order, any page starting at 0 must be a contiguous prefix. Every page
  // bumps the phase and aborts straddling inserts (the handshake), so the
  // scanner stops after kPages pages — or sooner, when the writer is done —
  // rather than racing the writer for as long as it runs: under sanitizer
  // slowdown back-to-back pages can starve the single writer.
  constexpr int kPages = 2000;
  Tree t;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (long k = 0; k < 20000; ++k) t.insert(k);
    done = true;
  });
  for (int p = 0; p < kPages && !done.load(); ++p) {
    const auto page = t.range_first(0, 20000, 64);
    for (std::size_t i = 0; i < page.size(); ++i) {
      ASSERT_EQ(page[i], static_cast<long>(i));
    }
    std::this_thread::yield();
  }
  writer.join();
  std::vector<long> prefix(64);
  std::iota(prefix.begin(), prefix.end(), 0L);
  EXPECT_EQ(t.range_first(0, 20000, 64), prefix);
}

}  // namespace
}  // namespace pnbbst

// The set surface every structure answers itself (core/concepts.h):
// OrderedSet, Scannable and PrefixScannable on the PNB-BST and the four
// baselines alike, with range_scan, range_count and range_first written
// once as folds over each structure's range_visit (RangeQueries,
// core/one_shot_queries.h).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "core/pnb_bst.h"
#include "mem/alloc_policy.h"
#include "nbbst/nb_bst.h"

namespace pnbbst {
namespace {

template <class Tree>
class SetSurfaceTyped : public ::testing::Test {};

using Implementations = ::testing::Types<PnbBst<long>, NbBst<long>,
                                         LockedBst<long>, CowBst<long>,
                                         LfSkipList<long>>;

TYPED_TEST_SUITE(SetSurfaceTyped, Implementations);

TYPED_TEST(SetSurfaceTyped, UniformInterfaceWorks) {
  TypeParam set;
  EXPECT_TRUE(set.insert(10));
  EXPECT_FALSE(set.insert(10));
  EXPECT_TRUE(set.contains(10));
  EXPECT_FALSE(set.contains(11));
  EXPECT_TRUE(set.insert(20));
  EXPECT_TRUE(set.insert(30));
  EXPECT_EQ(set.range_count(10, 30), 3u);
  EXPECT_EQ(set.range_count(15, 25), 1u);
  EXPECT_TRUE(set.erase(20));
  EXPECT_FALSE(set.erase(20));
  EXPECT_EQ(set.range_count(10, 30), 2u);
  EXPECT_EQ(set.size(), 2u);
}

TYPED_TEST(SetSurfaceTyped, NameIsNonEmpty) {
  EXPECT_NE(std::string(TypeParam::kName), "");
}

TYPED_TEST(SetSurfaceTyped, RangeScanReturnsSortedKeys) {
  TypeParam set;
  for (long k : {30L, 10L, 50L, 20L, 40L}) set.insert(k);
  const std::vector<long> scan = set.range_scan(15, 45);
  EXPECT_EQ(scan, (std::vector<long>{20, 30, 40}));
  EXPECT_EQ(set.range_scan(60, 99), std::vector<long>{});
}

TYPED_TEST(SetSurfaceTyped, RangeVisitBoolStopsVoidSeesAll) {
  TypeParam set;
  for (long k = 0; k < 20; ++k) set.insert(k);
  std::vector<long> seen;
  set.range_visit(0, 19, [&seen](long k) {
    seen.push_back(k);
    return seen.size() < 4;
  });
  EXPECT_EQ(seen, (std::vector<long>{0, 1, 2, 3}));
  std::vector<long> all;
  set.range_visit(0, 19, [&all](long k) { all.push_back(k); });
  ASSERT_EQ(all.size(), 20u);
  for (long k = 0; k < 20; ++k) EXPECT_EQ(all[k], k);
}

TYPED_TEST(SetSurfaceTyped, RangeFirstTakesAtMostN) {
  TypeParam set;
  for (long k = 0; k < 20; k += 2) set.insert(k);  // 0, 2, ..., 18
  EXPECT_EQ(set.range_first(3, 15, 0), std::vector<long>{});
  // A limit inside the range stops early.
  EXPECT_EQ(set.range_first(3, 15, 3), (std::vector<long>{4, 6, 8}));
  // A limit past the range returns the whole range.
  EXPECT_EQ(set.range_first(3, 15, 100),
            (std::vector<long>{4, 6, 8, 10, 12, 14}));
  EXPECT_EQ(set.range_first(19, 99, 5), std::vector<long>{});
}

TYPED_TEST(SetSurfaceTyped, InvertedRangeIsEmpty) {
  TypeParam set;
  for (long k = 0; k < 20; ++k) set.insert(k);
  EXPECT_EQ(set.range_scan(15, 5), std::vector<long>{});
  EXPECT_EQ(set.range_count(15, 5), 0u);
  EXPECT_EQ(set.range_first(15, 5, 4), std::vector<long>{});
  std::size_t visits = 0;
  set.range_visit(15, 5, [&visits](long) { ++visits; });
  set.range_visit(15, 5, [&visits](long) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0u);
}

TEST(SetSurface, PnbSnapshotBesideOneShotQueries) {
  PnbBst<long> tree;
  for (long k = 0; k < 10; ++k) tree.insert(k);
  auto snap = tree.snapshot();
  tree.insert(100);
  EXPECT_EQ(snap.size(), 10u);
  EXPECT_FALSE(snap.contains(100));
  EXPECT_EQ(snap.range_first(5, 200, 3), (std::vector<long>{5, 6, 7}));
  EXPECT_EQ(tree.range_count(0, 200), 11u);
  EXPECT_EQ(tree.range_first(8, 200, 5), (std::vector<long>{8, 9, 100}));
}

TEST(SetSurface, LinearizableScanFlags) {
  EXPECT_TRUE(PnbBst<long>::kLinearizableScan);
  EXPECT_FALSE(NbBst<long>::kLinearizableScan);
  EXPECT_TRUE(LockedBst<long>::kLinearizableScan);
  EXPECT_TRUE(CowBst<long>::kLinearizableScan);
  EXPECT_FALSE(LfSkipList<long>::kLinearizableScan);
}

TEST(SetSurface, Names) {
  EXPECT_STREQ(PnbBst<long>::kName, "pnb-bst");
  EXPECT_STREQ(NbBst<long>::kName, "nb-bst");
  EXPECT_STREQ(LockedBst<long>::kName, "locked-bst");
  EXPECT_STREQ(CowBst<long>::kName, "cow-bst");
  EXPECT_STREQ(LfSkipList<long>::kName, "lf-skiplist");
  // The arena builds keep their own bench-row names.
  using mem::ArenaAlloc;
  EXPECT_STREQ((PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats,
                       ArenaAlloc>::kName),
               "pnb-bst-arena");
  EXPECT_STREQ((NbBst<long, std::less<long>, EpochReclaimer, NullOpStats,
                      ArenaAlloc>::kName),
               "nb-bst-arena");
}

}  // namespace
}  // namespace pnbbst

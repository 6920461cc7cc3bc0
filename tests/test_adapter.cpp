#include "baseline/set_adapter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace pnbbst {
namespace {

template <class Tree>
class AdapterTyped : public ::testing::Test {};

using Implementations = ::testing::Types<PnbBst<long>, NbBst<long>,
                                         LockedBst<long>, CowBst<long>,
                                         LfSkipList<long>>;

TYPED_TEST_SUITE(AdapterTyped, Implementations);

TYPED_TEST(AdapterTyped, UniformInterfaceWorks) {
  TypeParam tree;
  auto set = adapt(tree);
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
}

TYPED_TEST(AdapterTyped, NameIsNonEmpty) {
  EXPECT_NE(std::string(SetAdapter<TypeParam>::kName), "");
}

TYPED_TEST(AdapterTyped, RangeScanReturnsSortedKeys) {
  TypeParam tree;
  auto set = adapt(tree);
  for (long k : {30L, 10L, 50L, 20L, 40L}) set.insert(k);
  const std::vector<long> scan = set.range_scan(15, 45);
  EXPECT_EQ(scan, (std::vector<long>{20, 30, 40}));
  EXPECT_EQ(set.range_scan(60, 99), std::vector<long>{});
}

TYPED_TEST(AdapterTyped, RangeVisitBoolStopsVoidSeesAll) {
  TypeParam tree;
  auto set = adapt(tree);
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

TEST(Adapter, PnbSnapshotThroughAdapter) {
  PnbBst<long> tree;
  auto set = adapt(tree);
  for (long k = 0; k < 10; ++k) set.insert(k);
  auto snap = set.snapshot();
  set.insert(100);
  EXPECT_EQ(snap.size(), 10u);
  EXPECT_FALSE(snap.contains(100));
  EXPECT_EQ(set.range_count(0, 200), 11u);
}

TEST(Adapter, LinearizableScanFlags) {
  EXPECT_TRUE(SetAdapter<PnbBst<long>>::kLinearizableScan);
  EXPECT_FALSE(SetAdapter<NbBst<long>>::kLinearizableScan);
  EXPECT_TRUE(SetAdapter<LockedBst<long>>::kLinearizableScan);
  EXPECT_TRUE(SetAdapter<CowBst<long>>::kLinearizableScan);
  EXPECT_FALSE(SetAdapter<LfSkipList<long>>::kLinearizableScan);
}

TEST(Adapter, Names) {
  EXPECT_STREQ(SetAdapter<PnbBst<long>>::kName, "pnb-bst");
  EXPECT_STREQ(SetAdapter<NbBst<long>>::kName, "nb-bst");
  EXPECT_STREQ(SetAdapter<LockedBst<long>>::kName, "locked-bst");
  EXPECT_STREQ(SetAdapter<CowBst<long>>::kName, "cow-bst");
  EXPECT_STREQ(SetAdapter<LfSkipList<long>>::kName, "lf-skiplist");
}

}  // namespace
}  // namespace pnbbst

// Sequential semantics of PNB-BST against a std::set model, plus structural
// invariants after every kind of history.
#include "core/pnb_bst.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common.h"
#include "core/validate.h"

namespace pnbbst {
namespace {

using Tree = PnbBst<long>;

TEST(PnbSequential, EmptyTree) {
  Tree t;
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.range_scan(-100, 100).empty());
}

TEST(PnbSequential, SingleInsert) {
  Tree t;
  EXPECT_TRUE(t.insert(42));
  EXPECT_TRUE(t.contains(42));
  EXPECT_FALSE(t.contains(41));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.empty());
}

TEST(PnbSequential, DuplicateInsertRejected) {
  Tree t;
  EXPECT_TRUE(t.insert(1));
  EXPECT_FALSE(t.insert(1));
  EXPECT_EQ(t.size(), 1u);
}

TEST(PnbSequential, InsertEraseInsert) {
  Tree t;
  EXPECT_TRUE(t.insert(5));
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.contains(5));
  EXPECT_TRUE(t.insert(5));
  EXPECT_TRUE(t.contains(5));
}

TEST(PnbSequential, EraseAbsentReturnsFalse) {
  Tree t;
  t.insert(1);
  EXPECT_FALSE(t.erase(2));
  EXPECT_TRUE(t.contains(1));
}

TEST(PnbSequential, EraseToEmptyAndRefill) {
  Tree t;
  for (long k = 0; k < 50; ++k) EXPECT_TRUE(t.insert(k));
  for (long k = 0; k < 50; ++k) EXPECT_TRUE(t.erase(k));
  EXPECT_EQ(t.size(), 0u);
  for (long k = 0; k < 50; ++k) EXPECT_TRUE(t.insert(k));
  EXPECT_EQ(t.size(), 50u);
}

TEST(PnbSequential, NegativeAndExtremeKeys) {
  Tree t;
  const long extremes[] = {0, -1, 1, -1000000007L, 1000000007L,
                           std::numeric_limits<long>::min(),
                           std::numeric_limits<long>::max()};
  for (long k : extremes) EXPECT_TRUE(t.insert(k)) << k;
  for (long k : extremes) EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_EQ(t.size(), std::size(extremes));
  for (long k : extremes) EXPECT_TRUE(t.erase(k)) << k;
  EXPECT_EQ(t.size(), 0u);
}

TEST(PnbSequential, AscendingInsertionOrder) {
  Tree t;
  for (long k = 0; k < 500; ++k) ASSERT_TRUE(t.insert(k));
  for (long k = 0; k < 500; ++k) ASSERT_TRUE(t.contains(k));
  EXPECT_EQ(t.size(), 500u);
  auto rep = check_current(t);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(PnbSequential, DescendingInsertionOrder) {
  Tree t;
  for (long k = 500; k-- > 0;) ASSERT_TRUE(t.insert(k));
  EXPECT_EQ(t.size(), 500u);
  auto rep = check_current(t);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(PnbSequential, StringKeys) {
  PnbBst<std::string> t;
  EXPECT_TRUE(t.insert("banana"));
  EXPECT_TRUE(t.insert("apple"));
  EXPECT_TRUE(t.insert("cherry"));
  EXPECT_FALSE(t.insert("apple"));
  EXPECT_TRUE(t.contains("banana"));
  EXPECT_TRUE(t.erase("banana"));
  EXPECT_FALSE(t.contains("banana"));
  auto v = t.range_scan("a", "z");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "apple");
  EXPECT_EQ(v[1], "cherry");
}

TEST(PnbSequential, CustomComparatorDescending) {
  PnbBst<long, std::greater<long>> t;
  for (long k : {3L, 1L, 4L, 1L, 5L}) t.insert(k);
  EXPECT_EQ(t.size(), 4u);
  // With greater<>, "range [lo, hi]" follows comparator order: lo=5, hi=1
  // means everything from 5 down to 1.
  auto v = t.range_scan(5, 1);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.front(), 5);
  EXPECT_EQ(v.back(), 1);
}

struct ModelFuzzParam {
  std::uint64_t seed;
  int ops;
  long key_range;
};

class PnbModelFuzz : public ::testing::TestWithParam<ModelFuzzParam> {};

TEST_P(PnbModelFuzz, MatchesStdSet) {
  const auto p = GetParam();
  Tree t;
  const auto model = test::run_model_ops(t, p.seed, p.ops, p.key_range);
  EXPECT_EQ(t.size(), model.size());
  for (long k : model) EXPECT_TRUE(t.contains(k));
  auto rep = check_current(t);
  EXPECT_TRUE(rep.ok) << rep.error;
  // Full scan equals model contents, in order.
  std::vector<long> expect(model.begin(), model.end());
  EXPECT_EQ(t.range_scan(0, p.key_range), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PnbModelFuzz,
    ::testing::Values(ModelFuzzParam{1, 2000, 64}, ModelFuzzParam{2, 2000, 64},
                      ModelFuzzParam{3, 5000, 16},   // dense: heavy churn
                      ModelFuzzParam{4, 5000, 4096}, // sparse: mostly inserts
                      ModelFuzzParam{5, 10000, 256},
                      ModelFuzzParam{6, 10000, 1},   // single key
                      ModelFuzzParam{7, 3000, 1000000}));

TEST(PnbSequential, PhaseAdvancesOnlyOnScans) {
  Tree t;
  const auto p0 = t.phase();
  t.insert(1);
  t.erase(1);
  t.contains(1);
  EXPECT_EQ(t.phase(), p0);
  t.range_scan(0, 10);
  EXPECT_EQ(t.phase(), p0 + 1);
  t.size();
  EXPECT_EQ(t.phase(), p0 + 2);
  auto s = t.snapshot();
  EXPECT_EQ(t.phase(), p0 + 3);
}

TEST(PnbSequential, StatsCountCommits) {
  PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats> t;
  for (long k = 0; k < 10; ++k) t.insert(k);
  for (long k = 0; k < 5; ++k) t.erase(k);
  EXPECT_EQ(t.stats().snapshot().commits, 15u);
  EXPECT_GE(t.stats().snapshot().attempts, 15u);
  t.insert(5);  // duplicate: no commit
  EXPECT_EQ(t.stats().snapshot().commits, 15u);
}

TEST(PnbSequential, RangeCountMatchesScan) {
  Tree t;
  for (long k = 0; k < 100; k += 3) t.insert(k);
  EXPECT_EQ(t.range_count(0, 99), t.range_scan(0, 99).size());
  EXPECT_EQ(t.range_count(10, 20), t.range_scan(10, 20).size());
}

}  // namespace
}  // namespace pnbbst

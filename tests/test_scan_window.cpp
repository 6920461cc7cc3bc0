// The windowed count walk against the ordered walk (unit label).
//
// range_count and size() take PnbBst::scan_tree's order-free path: W node
// loads in flight, each node's version resolved only when it leaves the
// window. range_scan takes the ordered path (W = 1). On one snapshot both
// must see the same T_seq, so every count here equals the size of the scan
// over the same bounds, for PnbBst, PnbMap and ShardedPnbMap.
//
// Each snapshot is churned after it is taken: the nodes the updates create
// belong to later phases, so a walk that does not follow prev chains back
// to the snapshot's phase counts the wrong version. The ranges cover random
// bounds, empty and inverted ranges, single keys, the whole domain (where
// the sentinel ∞ leaves lie inside the bounds), spans crossing shard
// boundaries, and a 500-key left spine whose scan spills the on-frame
// stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

constexpr long kSpace = 1L << 14;
constexpr long kMin = std::numeric_limits<long>::min();
constexpr long kMax = std::numeric_limits<long>::max();

// Random inserts and erases over [0, kSpace); insert(k) on a map stores k.
template <class S>
void churn(S& s, std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const long k = static_cast<long>(rng.next_bounded(kSpace));
    if (rng.next_bounded(2) == 0) {
      if constexpr (requires { s.insert(k, k); }) {
        s.insert(k, k);
      } else {
        s.insert(k);
      }
    } else {
      s.erase(k);
    }
  }
}

// The bounds every structure is checked on: random, empty (no key lies in
// them), inverted, single keys present or not, and the whole domain.
std::vector<std::pair<long, long>> ranges() {
  std::vector<std::pair<long, long>> out = {
      {kMin, kMax},  {kMin, -1},       {kSpace, kMax}, {0, kSpace - 1},
      {40, 39},      {kSpace - 1, 0},  {kMax, kMin},   {kSpace + 5, kSpace + 9},
      {-9, -5},      {kMin, kMin},     {kMax, kMax}};
  for (long k : {0L, 1L, 777L, kSpace / 2, kSpace - 1}) out.emplace_back(k, k);
  Xoshiro256 rng(4242);
  for (int i = 0; i < 200; ++i) {
    const long a = static_cast<long>(rng.next_bounded(kSpace + 64)) - 32;
    const long b = static_cast<long>(rng.next_bounded(kSpace + 64)) - 32;
    out.emplace_back(std::min(a, b), std::max(a, b));
  }
  return out;
}

// Checks range_count == range_scan(lo, hi).size() on one snapshot for
// every range, and size() against the whole-domain scan.
template <class Snap>
void expect_counts_match_scans(
    const Snap& snap, const std::vector<std::pair<long, long>>& rs) {
  for (const auto& [lo, hi] : rs) {
    EXPECT_EQ(snap.range_count(lo, hi), snap.range_scan(lo, hi).size())
        << "[" << lo << ", " << hi << "]";
  }
  EXPECT_EQ(snap.size(), snap.range_scan(kMin, kMax).size());
}

// Takes a snapshot of a churned structure, churns it again (so the
// snapshot's phase is behind most nodes), and compares counts to scans.
template <class S>
void check_after_churn(S& s, std::uint64_t seed,
                       const std::vector<std::pair<long, long>>& rs) {
  churn(s, seed, 20000);
  auto snap = s.snapshot();
  const std::size_t before = snap.size();
  churn(s, seed + 1, 20000);
  expect_counts_match_scans(snap, rs);
  EXPECT_EQ(snap.size(), before);
}

TEST(ScanWindow, TreeCountMatchesScanOnOneSnapshot) {
  PnbBst<long> tree;
  check_after_churn(tree, 1, ranges());
}

TEST(ScanWindow, MapCountMatchesScanOnOneSnapshot) {
  PnbMap<long, long> map;
  check_after_churn(map, 2, ranges());
}

TEST(ScanWindow, ShardedCountMatchesScanOnOneSnapshot) {
  // Eight shards of kSpace / 8 keys: add spans that cross one, two and
  // every shard boundary.
  ShardedPnbMap<long, long, 8> map(RangeSplitter<long>{0, kSpace});
  auto rs = ranges();
  constexpr long kShard = kSpace / 8;
  for (long b = kShard; b < kSpace; b += kShard) {
    rs.emplace_back(b - 1, b);
    rs.emplace_back(b - 100, b + kShard + 100);
  }
  rs.emplace_back(1, kSpace - 2);
  check_after_churn(map, 3, rs);
}

TEST(ScanWindow, LeftSpineCountMatchesScan) {
  // Descending inserts hang each new key left of the last: a left spine
  // 500 deep, deeper than the ordered walk's 64 on-frame stack slots.
  constexpr long kKeys = 500;
  const std::vector<std::pair<long, long>> rs = {
      {0, kKeys - 1}, {kMin, kMax}, {100, 399}, {250, 250}, {kKeys, kMax}};
  PnbBst<long> tree;
  PnbMap<long, long> map;
  ShardedPnbMap<long, long, 4> sharded(RangeSplitter<long>{0, 4 * kKeys});
  for (long k = kKeys - 1; k >= 0; --k) {
    ASSERT_TRUE(tree.insert(k));
    ASSERT_TRUE(map.insert(k, k));
    ASSERT_TRUE(sharded.insert(k, k));
  }
  auto tsnap = tree.snapshot();
  auto msnap = map.snapshot();
  auto ssnap = sharded.snapshot();
  for (long k = 0; k < kKeys; k += 2) {
    tree.erase(k);
    map.erase(k);
    sharded.erase(k);
  }
  EXPECT_EQ(tsnap.range_count(0L, kKeys - 1), static_cast<std::size_t>(kKeys));
  expect_counts_match_scans(tsnap, rs);
  expect_counts_match_scans(msnap, rs);
  expect_counts_match_scans(ssnap, rs);
  EXPECT_EQ(tree.range_count(0L, kKeys - 1),
            static_cast<std::size_t>(kKeys / 2));
}

TEST(ScanWindow, OldSnapshotCountFollowsPrevChains) {
  // Every key of [lo, hi] is erased and every gap filled after the
  // snapshot, so each node the old snapshot must count has a newer
  // version in the live tree, reached only through prev.
  constexpr long kLo = 1000;
  constexpr long kHi = 2999;
  PnbBst<long> tree;
  for (long k = 0; k < 4000; k += 2) ASSERT_TRUE(tree.insert(k));
  auto snap = tree.snapshot();
  const std::size_t count = snap.range_count(kLo, kHi);
  const std::size_t total = snap.size();
  ASSERT_EQ(count, static_cast<std::size_t>((kHi - kLo + 1) / 2));
  for (long k = kLo; k <= kHi; ++k) {
    if (k % 2 == 0) {
      ASSERT_TRUE(tree.erase(k));
    } else {
      ASSERT_TRUE(tree.insert(k));
    }
  }
  for (long k = kLo + 1; k <= kHi; k += 4) ASSERT_TRUE(tree.erase(k));
  EXPECT_EQ(snap.range_count(kLo, kHi), count);
  EXPECT_EQ(snap.size(), total);
  std::vector<long> evens;
  for (long k = kLo; k <= kHi; k += 2) evens.push_back(k);
  EXPECT_EQ(snap.range_scan(kLo, kHi), evens);
  EXPECT_EQ(tree.range_count(kLo, kHi), count / 2);
}

}  // namespace
}  // namespace pnbbst

// ShardedPnbMap single-threaded behavior: the range splitter's monotone
// routing, sequential differential against a single PnbMap, merged scans
// (in-order shard concatenation, exactness, span restriction), the
// composite snapshot, and the rejection of splitters and shard indices
// that cannot be routed.
#include "shard/sharded_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/random.h"

namespace pnbbst {
namespace {

TEST(Splitters, RangeSplitterPartitionsContiguously) {
  RangeSplitter<long> sp{0, 1000};
  // Monotone, total, and clamped at the edges.
  std::size_t prev = 0;
  for (long k = -10; k < 1010; ++k) {
    const std::size_t s = sp.shard_of(k, 4);
    ASSERT_LT(s, 4u);
    ASSERT_GE(s, prev) << k;
    prev = s;
  }
  EXPECT_EQ(sp.shard_of(-1, 4), 0u);
  EXPECT_EQ(sp.shard_of(0, 4), 0u);
  EXPECT_EQ(sp.shard_of(999, 4), 3u);
  EXPECT_EQ(sp.shard_of(5000, 4), 3u);

  // Span covers exactly the overlapped shards; narrow ranges hit one shard.
  EXPECT_EQ(sp.shard_span(0, 999, 4),
            (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(sp.shard_span(10, 20, 4),
            (std::pair<std::size_t, std::size_t>{0, 1}));
  // [300, 400] sits inside shard 1 ([250, 500)); [200, 300] straddles 0|1.
  EXPECT_EQ(sp.shard_span(300, 400, 4),
            (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(sp.shard_span(200, 300, 4),
            (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(sp.shard_span(20, 10, 4),
            (std::pair<std::size_t, std::size_t>{0, 0}));
}

TEST(Splitters, RangeSplitterSurvivesFullWidthKeyspace) {
  // A span near 2^64 used to overflow the ceil-division and divide by zero.
  RangeSplitter<long> sp{std::numeric_limits<long>::min(),
                         std::numeric_limits<long>::max()};
  for (long k : {std::numeric_limits<long>::min(), -1L, 0L, 1L,
                 std::numeric_limits<long>::max() - 1}) {
    ASSERT_LT(sp.shard_of(k, 8), 8u) << k;
  }
  EXPECT_LT(sp.shard_of(std::numeric_limits<long>::min(), 8),
            sp.shard_of(std::numeric_limits<long>::max() - 1, 8) + 1);
  ShardedPnbMap<long, long, 8> m(sp);
  EXPECT_TRUE(m.insert(std::numeric_limits<long>::min(), 1));
  EXPECT_TRUE(m.insert(0, 2));
  EXPECT_TRUE(m.insert(std::numeric_limits<long>::max() - 1, 3));
  EXPECT_EQ(m.size(), 3u);
}

// Merged scans concatenate shard results in shard order, which is sorted
// only if routing never goes backwards: a <= b must imply shard_of(a) <=
// shard_of(b). Checked on random key pairs for every splitter shape —
// equal-width, explicit cuts (including too few cuts, which leaves the top
// shards empty), the full-width keyspace — with keys drawn on both sides
// of [lo, hi) as well as inside it.
TEST(Splitters, RoutingIsMonotoneInTheKey) {
  using K = std::int64_t;
  constexpr K kMin = std::numeric_limits<K>::min();
  constexpr K kMax = std::numeric_limits<K>::max();
  struct Case {
    RangeSplitter<K> sp;
    std::size_t nshards;
  };
  const std::vector<Case> cases = {
      {RangeSplitter<K>{0, 1000}, 4},
      {RangeSplitter<K>{-500, 1001}, 7},  // span not a multiple of nshards
      {RangeSplitter<K>{10, 13}, 8},      // fewer keys than shards
      {RangeSplitter<K>{0, 0}, 8},        // default-shaped: edge shards only
      {RangeSplitter<K>{kMin, kMax}, 8},
      {RangeSplitter<K>::with_boundaries(0, 1000, {900, 5, 5, 300}, 8), 8},
      {RangeSplitter<K>::with_boundaries(0, 1000, {500}, 4), 4},
      {RangeSplitter<K>::with_boundaries(-64, 64, {-1, 0, 1}, 4), 4},
      {RangeSplitter<K>::with_boundaries(kMin, kMax, {-7, 0, 7}, 8), 8},
  };
  Xoshiro256 rng(77);
  for (const Case& c : cases) {
    const RangeSplitter<K>& sp = c.sp;
    // Half the draws land within 32 keys of an edge (or a cut), the other
    // half anywhere in the 64-bit keyspace.
    std::vector<K> anchors = {sp.lo, sp.hi, kMin, kMax};
    anchors.insert(anchors.end(), sp.cuts.begin(), sp.cuts.end());
    auto draw = [&]() -> K {
      if (rng.next_bounded(2) == 0) return static_cast<K>(rng.next());
      const K base = anchors[rng.next_bounded(anchors.size())];
      const K off = static_cast<K>(rng.next_bounded(65)) - 32;
      if (off > 0 && base > kMax - off) return kMax;
      if (off < 0 && base < kMin - off) return kMin;
      return base + off;
    };
    for (int i = 0; i < 20000; ++i) {
      K a = draw();
      K b = draw();
      if (b < a) std::swap(a, b);
      const std::size_t sa = sp.shard_of(a, c.nshards);
      const std::size_t sb = sp.shard_of(b, c.nshards);
      ASSERT_LT(sb, c.nshards) << b;
      ASSERT_LE(sa, sb) << "a=" << a << " b=" << b << " lo=" << sp.lo
                        << " hi=" << sp.hi;
      // Explicit cuts leave shards past cuts.size() empty — except the
      // top shard, which owns every key >= hi.
      if (!sp.cuts.empty() && a < sp.hi) {
        ASSERT_LE(sa, sp.cuts.size()) << a;
      }
    }
    EXPECT_EQ(sp.shard_of(kMin, c.nshards), 0u);
    EXPECT_EQ(sp.shard_of(kMax, c.nshards), c.nshards - 1);
  }
}

template <class Sharded>
void differential_vs_single(Sharded& sharded) {
  PnbMap<long, long> single;
  Xoshiro256 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(512));
    switch (rng.next_bounded(5)) {
      case 0: {
        const long v = static_cast<long>(rng.next());
        ASSERT_EQ(sharded.insert(k, v), single.insert(k, v)) << "op " << i;
        break;
      }
      case 1:
        ASSERT_EQ(sharded.erase(k), single.erase(k)) << "op " << i;
        break;
      case 2:
        ASSERT_EQ(sharded.contains(k), single.contains(k)) << "op " << i;
        break;
      case 3:
        ASSERT_EQ(sharded.get(k), single.get(k)) << "op " << i;
        break;
      default: {
        const long hi = k + static_cast<long>(rng.next_bounded(64));
        ASSERT_EQ(sharded.range_scan(k, hi), single.range_scan(k, hi))
            << "op " << i;
        ASSERT_EQ(sharded.range_count(k, hi), single.range_count(k, hi))
            << "op " << i;
        break;
      }
    }
  }
  ASSERT_EQ(sharded.size(), single.size());
  ASSERT_EQ(sharded.range_scan(0, 511), single.range_scan(0, 511));
}

TEST(ShardedMap, SequentialDifferentialRangeSplitter) {
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 512});
  differential_vs_single(m);
}

TEST(ShardedMap, SequentialDifferentialUnevenBoundaries) {
  // Uneven cuts over [16, 400): shard 0 owns [16, 40) plus every key below
  // 16, shard 1 only key 40, shard 2 [41, 300), shard 3 [300, 400) plus
  // every key >= 400. The differential's keys run to 511 and its ranges
  // past that, deep into the clamped top shard.
  ShardedPnbMap<long, long, 4> m(
      RangeSplitter<long>::with_boundaries(16, 400, {300, 40, 41}, 4));
  ASSERT_EQ(m.splitter().cuts, (std::vector<long>{40, 41, 300}));
  differential_vs_single(m);
}

TEST(ShardedMap, MergedScanIsSortedAcrossShards) {
  // Eight 125-key shards over [0, 1000), filled in descending key order.
  // [100, 899] crosses all seven shard boundaries, so a sorted result
  // shows the shard-order concatenation (sequential and parallel) keeps
  // keys in order across every boundary.
  ShardedPnbMap<long, long, 8> m(RangeSplitter<long>{0, 1000});
  for (long k = 999; k >= 0; --k) m.insert(k, k * 3);
  ASSERT_EQ(m.splitter().shard_span(100, 899, 8),
            (std::pair<std::size_t, std::size_t>{0, 8}));
  const auto scan = m.range_scan(100, 899);
  ASSERT_EQ(scan.size(), 800u);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    ASSERT_EQ(scan[i].first, static_cast<long>(100 + i));
    ASSERT_EQ(scan[i].second, scan[i].first * 3);
  }
  EXPECT_EQ(m.parallel_range_count(100, 899, 4), scan.size());
  EXPECT_EQ(m.snapshot().range_scan(100, 899), scan);
}

TEST(ShardedMap, PointOpsAndGetOr) {
  ShardedPnbMap<long, std::string, 4> m(RangeSplitter<long>{0, 400});
  EXPECT_TRUE(m.insert(10, "a"));
  EXPECT_FALSE(m.insert(10, "b"));
  EXPECT_EQ(m.get(10), "a");
  EXPECT_EQ(m.get_or(11, "none"), "none");
  EXPECT_TRUE(m.assign(10, "A"));
  EXPECT_EQ(m.get(10), "A");
  EXPECT_FALSE(m.assign(399, "edge"));
  EXPECT_TRUE(m.contains(399));
  EXPECT_TRUE(m.erase(10));
  EXPECT_FALSE(m.erase(10));
}

TEST(ShardedMap, RangeFirstAndStoppingRangeVisit) {
  // Four 50-key shards over [0, 200).
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 200});
  for (long k = 0; k < 200; ++k) m.insert(k, k);
  const auto first = m.range_first(45, 199, 10);  // crosses the 0|1 edge
  ASSERT_EQ(first.size(), 10u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, static_cast<long>(45 + i));
  }
  // n beyond the range: every boundary crossed, nothing duplicated.
  EXPECT_EQ(m.range_first(0, 199, 500), m.range_scan(0, 199));
  EXPECT_TRUE(m.range_first(0, 199, 0).empty());

  std::vector<long> seen;
  m.range_visit(0, 199, [&seen](long k, long) {
    seen.push_back(k);
    return k < 2;
  });
  EXPECT_EQ(seen, (std::vector<long>{0, 1, 2}));

  // A stop in shard 3 after walking shards 0..2 in full.
  seen.clear();
  m.range_visit(0, 199, [&seen](long k, long) {
    seen.push_back(k);
    return k < 160;
  });
  ASSERT_EQ(seen.size(), 161u);
  for (long k = 0; k <= 160; ++k) ASSERT_EQ(seen[k], k);
}

TEST(ShardedMap, RangeFirstSpansShardsWhenTheFirstRunsShort) {
  // Shard 0 ([0, 100)) holds 3 keys, shard 1 none, shard 2 a full run:
  // the first 10 pairs are shard 0's three followed by shard 2's first
  // seven, and the top shard's keys never appear.
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 400});
  for (long k : {10L, 20L, 30L}) m.insert(k, -k);
  for (long k = 200; k < 400; ++k) m.insert(k, -k);
  const std::vector<std::pair<long, long>> want = {
      {10, -10},   {20, -20},   {30, -30},   {200, -200}, {201, -201},
      {202, -202}, {203, -203}, {204, -204}, {205, -205}, {206, -206}};
  EXPECT_EQ(m.range_first(0, 399, 10), want);
  EXPECT_EQ(m.snapshot().range_first(-5, 1000, 10), want);
  // Exactly shard 0's count, and one past it.
  EXPECT_EQ(m.range_first(0, 399, 3),
            (std::vector<std::pair<long, long>>(want.begin(),
                                                want.begin() + 3)));
  EXPECT_EQ(m.range_first(0, 399, 4),
            (std::vector<std::pair<long, long>>(want.begin(),
                                                want.begin() + 4)));
}

TEST(ShardedMap, RangeVisitCrossesShardsWithoutDupOrSkip) {
  // Four 250-key shards over [0, 1000): a full visit emits every key once
  // and in order across the three boundaries.
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 1000});
  constexpr long kN = 1000;
  for (long k = 0; k < kN; ++k) m.insert(k, k);
  std::vector<long> seen;
  m.range_visit(0, kN - 1, [&seen](long k, long v) {
    EXPECT_EQ(v, k);
    seen.push_back(k);
    return true;
  });
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kN));
  for (long k = 0; k < kN; ++k) ASSERT_EQ(seen[k], k);

  // Early exit on the last key of shard 0: no later shard is visited.
  seen.clear();
  m.range_visit(0, kN - 1, [&seen](long k, long) {
    seen.push_back(k);
    return seen.size() < 250;
  });
  EXPECT_EQ(seen.size(), 250u);
  EXPECT_EQ(seen.back(), 249);

  // A void visitor (no early exit) agrees with the scan.
  std::vector<std::pair<long, long>> visited;
  m.range_visit(100, 900, [&visited](long k, long v) {
    visited.emplace_back(k, v);
  });
  EXPECT_EQ(visited, m.range_scan(100, 900));
}

TEST(ShardedMap, CompositeSnapshotIsRepeatableAndIsolated) {
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; k += 2) m.insert(k, k);

  auto snap = m.snapshot();
  ASSERT_EQ(snap.phases().size(), 4u);

  // Mutate after the snapshot: the snapshot must not move.
  for (long k = 1; k < 1000; k += 2) m.insert(k, k);
  m.erase(0);

  EXPECT_EQ(snap.size(), 500u);
  EXPECT_TRUE(snap.contains(0));
  EXPECT_FALSE(snap.contains(1));
  EXPECT_EQ(snap.get(2), 2);
  EXPECT_EQ(snap.range_count(0, 999), 500u);
  const auto scan = snap.range_scan(0, 9);
  ASSERT_EQ(scan.size(), 5u);
  EXPECT_EQ(scan[4].first, 8);
  // Repeatable: asking again gives the same answer.
  EXPECT_EQ(snap.range_scan(0, 9), scan);
  EXPECT_EQ(snap.range_first(0, 999, 3).size(), 3u);

  // The live map sees everything.
  EXPECT_EQ(m.size(), 999u);
}

TEST(ShardedMap, SingleShardDegeneratesToPnbMap) {
  // One shard over [0, 50): keys past hi (and below lo) clamp into it.
  ShardedPnbMap<long, long, 1> m(RangeSplitter<long>{0, 50});
  PnbMap<long, long> single;
  for (long k = -20; k < 100; ++k) {
    m.insert(k, k);
    single.insert(k, k);
  }
  EXPECT_EQ(m.size(), 120u);
  EXPECT_EQ(m.range_count(0, 99), 100u);
  EXPECT_EQ(m.shard_of(42), 0u);
  EXPECT_EQ(m.shard_of(-20), 0u);
  EXPECT_EQ(m.shard_of(99), 0u);
  EXPECT_EQ(m.range_scan(-30, 200), single.range_scan(-30, 200));
  EXPECT_EQ(m.range_first(40, 60, 15), single.range_first(40, 60, 15));
  EXPECT_EQ(m.parallel_range_count(-20, 99, 2), single.range_count(-20, 99));
}

TEST(ShardedMap, SpanSnapshotAtSplitterBoundaries) {
  // Keys exactly at splitter edges: with [0, 800) over 8 shards, shard i
  // owns [i*100, (i+1)*100). A query range touching only a boundary key
  // must span exactly the owning shard, and the span snapshot must answer
  // exactly like a full snapshot for everything inside its span.
  ShardedPnbMap<long, long, 8> m(RangeSplitter<long>{0, 800});
  for (long k = 0; k < 800; ++k) m.insert(k, k + 1);

  // [100, 100]: the first key of shard 1 — single-shard span.
  EXPECT_EQ(m.splitter().shard_span(100, 100, 8),
            (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(m.range_count(100, 100), 1u);
  EXPECT_EQ(m.range_scan(100, 100),
            (std::vector<std::pair<long, long>>{{100, 101}}));

  // [99, 100]: straddles the 0|1 edge — exactly two shards, both keys.
  EXPECT_EQ(m.splitter().shard_span(99, 100, 8),
            (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(m.range_scan(99, 100),
            (std::vector<std::pair<long, long>>{{99, 100}, {100, 101}}));

  // [199, 199]: the last key of shard 1 — still only shard 1.
  EXPECT_EQ(m.splitter().shard_span(199, 199, 8),
            (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(m.range_count(199, 199), 1u);

  // Below-lo and above-hi clamp to the edge shards.
  EXPECT_EQ(m.range_count(-50, 0), 1u);
  EXPECT_EQ(m.range_count(799, 5000), 1u);
}

TEST(ShardedMap, SingleShardSpanIsExactAndRoutedWithinSpan) {
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 400});
  for (long k = 0; k < 400; k += 2) m.insert(k, k * 9);

  // Shard 1 owns [100, 200). A composite snapshot over that span has one
  // shard snapshot; route() answers inside the span, nullptr outside.
  // The one-shot range queries below run on the same snapshot(lo, hi).
  auto span = m.snapshot(100, 199);
  EXPECT_EQ(span.phases().size(), 1u);
  EXPECT_TRUE(span.contains(150));
  EXPECT_FALSE(span.contains(50));   // shard 0: outside the span
  EXPECT_FALSE(span.contains(250));  // shard 2: outside the span
  EXPECT_EQ(span.range_count(0, 399), 50u);
  EXPECT_EQ(m.range_count(100, 199), 50u);
  const auto scan = m.range_scan(100, 199);
  ASSERT_EQ(scan.size(), 50u);
  EXPECT_EQ(scan.front().first, 100);
  EXPECT_EQ(scan.back().first, 198);

  // Full snapshot: route() covers every shard (point reads anywhere).
  auto snap = m.snapshot();
  EXPECT_TRUE(snap.contains(0));
  EXPECT_TRUE(snap.contains(398));
  EXPECT_FALSE(snap.contains(399));
  EXPECT_EQ(snap.get(150).value_or(-1), 150 * 9);
  EXPECT_EQ(snap.get(151), std::nullopt);
  // Out-of-bounds keys route to the clamped edge shards and answer there.
  EXPECT_FALSE(snap.contains(-7));
  EXPECT_FALSE(snap.contains(4000));
}

TEST(ShardedMap, EmptySpanQueriesAreEmptyNotUB) {
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 400});
  for (long k = 0; k < 400; ++k) m.insert(k, k);

  // lo > hi: the splitter yields the empty span {0, 0}; every merged
  // query must come back empty (and range_visit must not loop).
  EXPECT_EQ(m.splitter().shard_span(300, 200, 4),
            (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(m.range_count(300, 200), 0u);
  EXPECT_TRUE(m.range_scan(300, 200).empty());
  EXPECT_TRUE(m.range_first(300, 200, 10).empty());
  std::size_t visited = 0;
  m.range_visit(300, 200, [&visited](long, long) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(m.parallel_range_count(300, 200, 2), 0u);
}

TEST(ShardedMap, RouteMatchesSplitter) {
  ShardedPnbMap<long, long, 8> m(RangeSplitter<long>{0, 800});
  for (long k = 0; k < 800; k += 97) {
    m.insert(k, k);
    EXPECT_EQ(m.shard_of(k), m.splitter().shard_of(k, 8));
    // The key really lives in its routed shard and nowhere else.
    std::size_t holders = 0;
    for (std::size_t s = 0; s < 8; ++s) {
      holders += m.shard_ref(s).contains(k) ? 1u : 0u;
    }
    EXPECT_EQ(holders, 1u);
    EXPECT_TRUE(m.shard_ref(m.shard_of(k)).contains(k));
  }
}

// A splitter shard_of cannot route into [0, NumShards) in key order is
// rejected up front: more cuts than NumShards - 1 would index past the
// shard array, and unsorted or out-of-(lo, hi) cuts break monotone routing.
TEST(ShardedMap, ConstructorRejectsAnUnroutableSplitter) {
  using Map4 = ShardedPnbMap<long, long, 4>;
  // with_boundaries keeps nshards - 1 = 7 cuts: key 650 would route to 6.
  EXPECT_THROW(Map4(RangeSplitter<long>::with_boundaries(
                   0, 1000, {100, 200, 300, 400, 500, 600, 700}, 8)),
               std::invalid_argument);
  EXPECT_THROW(Map4(RangeSplitter<long>{0, 1000, {500, 200}}),
               std::invalid_argument);
  EXPECT_THROW(Map4(RangeSplitter<long>{0, 1000, {200, 200}}),
               std::invalid_argument);
  EXPECT_THROW(Map4(RangeSplitter<long>{0, 1000, {0, 500}}),
               std::invalid_argument);
  EXPECT_THROW(Map4(RangeSplitter<long>{0, 1000, {500, 1000}}),
               std::invalid_argument);
  Map4 ok(RangeSplitter<long>::with_boundaries(0, 1000, {100, 200, 300}, 4));
  EXPECT_TRUE(ok.insert(650, 1));
  EXPECT_EQ(ok.shard_of(650), 3u);
}

TEST(ShardedMap, ReshardRejectsUnsortedCutsAndLeavesTheMapUntouched) {
  ShardedPnbMap<long, long, 4> m(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; k += 7) m.insert(k, -k);
  const auto contents = m.range_scan(0, 999);
  const auto sizes = m.shard_sizes();

  EXPECT_THROW(m.reshard(RangeSplitter<long>{0, 1000, {600, 200, 400}}),
               std::invalid_argument);
  const RangeSplitter<long> sp = m.splitter();
  EXPECT_EQ(sp.lo, 0);
  EXPECT_EQ(sp.hi, 1000);
  EXPECT_TRUE(sp.cuts.empty());
  EXPECT_EQ(m.range_scan(0, 999), contents);
  EXPECT_EQ(m.shard_sizes(), sizes);
  EXPECT_EQ(m.retired_maps(), 0u);
  EXPECT_EQ(m.retired_bytes(), 0u);

  // No migration was left open: writes land, and a valid reshard works.
  EXPECT_TRUE(m.insert(1001, 1));
  EXPECT_TRUE(m.erase(1001));
  EXPECT_EQ(m.reshard(RangeSplitter<long>::with_boundaries(
                0, 1000, {200, 400, 600}, 4)),
            contents.size());
  EXPECT_EQ(m.splitter().cuts, (std::vector<long>{200, 400, 600}));
  EXPECT_EQ(m.range_scan(0, 999), contents);
}

}  // namespace
}  // namespace pnbbst

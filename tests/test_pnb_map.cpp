// PnbMap redesigned API: heterogeneous lookups that construct no value
// probes, non-default-constructible values, get_or, range_visit with
// key+value, early-terminating scans, and the full Snapshot mirror of
// PnbBst::Snapshot.
#include "core/pnb_map.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace pnbbst {
namespace {

// A value with no default constructor and a move-only-ish footprint guard:
// constructing one without an argument must not compile anywhere in the map.
struct Payload {
  explicit Payload(int x) : x(x) {}
  int x;
  bool operator==(const Payload& o) const { return x == o.x; }
};
static_assert(!std::is_default_constructible_v<Payload>);

TEST(PnbMapRedesign, NonDefaultConstructibleValue) {
  PnbMap<long, Payload> m;
  EXPECT_TRUE(m.insert(1, Payload(10)));
  EXPECT_TRUE(m.insert(2, Payload(20)));
  EXPECT_FALSE(m.insert(1, Payload(11)));  // insert-if-absent
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(3));
  EXPECT_EQ(m.get(2), Payload(20));
  EXPECT_EQ(m.get(3), std::nullopt);
  EXPECT_EQ(m.get_or(3, Payload(-1)), Payload(-1));
  EXPECT_EQ(m.get_or(1, Payload(-1)), Payload(10));
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 1u);

  std::vector<std::pair<long, int>> seen;
  m.range_visit(0, 100, [&seen](long k, const Payload& p) {
    seen.emplace_back(k, p.x);
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (std::pair<long, int>{2, 20}));

  auto snap = m.snapshot();
  EXPECT_TRUE(snap.contains(2));
  EXPECT_EQ(snap.get(2), Payload(20));
  EXPECT_EQ(snap.size(), 1u);
}

TEST(PnbMapRedesign, HeterogeneousStringViewLookups) {
  // Transparent comparator: string_view probes never allocate a string.
  PnbMap<std::string, long, std::less<>> m;
  EXPECT_TRUE(m.insert("alpha", 1));
  EXPECT_TRUE(m.insert("beta", 2));
  EXPECT_TRUE(m.insert("gamma", 3));

  const std::string_view probe = "beta";
  EXPECT_TRUE(m.contains(probe));
  EXPECT_EQ(m.get(probe), 2);
  EXPECT_EQ(m.get_or(std::string_view("delta"), -1), -1);
  EXPECT_EQ(m.range_count(std::string_view("alpha"), std::string_view("beta")),
            2u);
  EXPECT_TRUE(m.erase(probe));
  EXPECT_FALSE(m.contains(probe));
}

TEST(PnbMapRedesign, GetOrAndAssign) {
  PnbMap<long, std::string> m;
  EXPECT_EQ(m.get_or(5, "none"), "none");
  m.insert(5, "five");
  EXPECT_EQ(m.get_or(5, "none"), "five");
  EXPECT_TRUE(m.assign(5, "FIVE"));   // existed
  EXPECT_EQ(m.get(5), "FIVE");
  EXPECT_FALSE(m.assign(6, "six"));   // fresh mapping
  EXPECT_EQ(m.get(6), "six");
}

TEST(PnbMapRedesign, RangeVisitYieldsKeyAndValueInOrder) {
  PnbMap<long, long> m;
  for (long k = 0; k < 50; ++k) m.insert(k, k * k);
  long expect = 10;
  m.range_visit(10, 20, [&expect](long k, long v) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, k * k);
    ++expect;
  });
  EXPECT_EQ(expect, 21);
}

TEST(PnbMapRedesign, RangeVisitStopsEarly) {
  PnbMap<long, long> m;
  for (long k = 0; k < 100; ++k) m.insert(k, k);
  std::vector<long> seen;
  m.range_visit(0, 99, [&seen](long k, long) {
    seen.push_back(k);
    return seen.size() < 5;
  });
  EXPECT_EQ(seen, (std::vector<long>{0, 1, 2, 3, 4}));

  auto first = m.range_first(10, 99, 3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].first, 10);
  EXPECT_EQ(first[2].first, 12);
}

TEST(PnbMapRedesign, OrderedQueries) {
  PnbMap<long, std::string> m;
  m.insert(10, "ten");
  m.insert(20, "twenty");
  m.insert(30, "thirty");
  ASSERT_TRUE(m.successor(15).has_value());
  EXPECT_EQ(m.successor(15)->first, 20);
  EXPECT_EQ(m.successor(15)->second, "twenty");
  EXPECT_EQ(m.predecessor(15)->first, 10);
  EXPECT_EQ(m.min()->first, 10);
  EXPECT_EQ(m.max()->first, 30);
  EXPECT_EQ(m.successor(31), std::nullopt);
}

TEST(PnbMapRedesign, SnapshotMirrorsTreeSnapshot) {
  PnbMap<long, long> m;
  for (long k = 0; k < 100; k += 2) m.insert(k, k + 1);

  auto snap = m.snapshot();
  const auto phase = snap.phase();

  // Updates after the snapshot are invisible to it.
  m.insert(1, 2);
  m.erase(0);
  EXPECT_TRUE(snap.contains(0));
  EXPECT_FALSE(snap.contains(1));
  EXPECT_EQ(snap.get(0), 1);
  EXPECT_EQ(snap.size(), 50u);
  EXPECT_EQ(snap.range_count(0, 99), 50u);
  EXPECT_EQ(snap.phase(), phase);

  auto pairs = snap.range_scan(0, 10);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<long, long>{0, 1}));

  auto first2 = snap.range_first(0, 99, 2);
  ASSERT_EQ(first2.size(), 2u);
  EXPECT_EQ(first2[1].first, 2);

  EXPECT_EQ(snap.successor(3)->first, 4);
  EXPECT_EQ(snap.predecessor(3)->first, 2);
  EXPECT_EQ(snap.min()->first, 0);
  EXPECT_EQ(snap.max()->first, 98);

  // The live map sees the post-snapshot updates.
  EXPECT_TRUE(m.contains(1));
  EXPECT_FALSE(m.contains(0));
}

TEST(PnbMapRedesign, ConcurrentNonDefaultConstructibleValues) {
  PnbMap<long, Payload> m;
  constexpr unsigned kThreads = 4;
  constexpr long kPerThread = 2000;
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    pool.emplace_back([&m, ti] {
      const long base = static_cast<long>(ti) * kPerThread;
      for (long i = 0; i < kPerThread; ++i) {
        m.insert(base + i, Payload(static_cast<int>(i)));
      }
      for (long i = 0; i < kPerThread; i += 2) m.erase(base + i);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(m.size(), kThreads * kPerThread / 2);
  for (unsigned ti = 0; ti < kThreads; ++ti) {
    const long base = static_cast<long>(ti) * kPerThread;
    EXPECT_FALSE(m.contains(base));
    ASSERT_TRUE(m.contains(base + 1));
    EXPECT_EQ(m.get(base + 1), Payload(1));
  }
}

// entry_count() moves only on successful inserts and erases: duplicate
// inserts, absent erases and bulk_load duplicates leave it alone, and it
// never opens a phase.
TEST(PnbMapRedesign, EntryCountFollowsOnlySuccessfulUpdates) {
  PnbMap<long, long> m;
  EXPECT_EQ(m.bulk_load({{1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21}}), 3u);
  EXPECT_EQ(m.entry_count(), 3u);
  EXPECT_FALSE(m.insert(2, 99));  // duplicate
  EXPECT_FALSE(m.erase(7));       // absent
  EXPECT_EQ(m.entry_count(), 3u);
  EXPECT_TRUE(m.insert(4, 40));
  EXPECT_TRUE(m.erase(1));
  EXPECT_TRUE(m.assign(2, 22));   // replaces: count unchanged
  EXPECT_FALSE(m.assign(5, 50));  // adds
  EXPECT_EQ(m.entry_count(), 4u);
  using Op = ingest::BatchOp<long, long>;
  const auto r = m.apply_batch(
      {Op::insert(3, 0), Op::erase(8), Op::insert(6, 0), Op::erase(4)});
  EXPECT_EQ(r.inserted, 1u);
  EXPECT_EQ(r.erased, 1u);
  const std::uint64_t phase = m.underlying().phase();
  EXPECT_EQ(m.entry_count(), 4u);
  EXPECT_EQ(m.underlying().phase(), phase);
  EXPECT_EQ(m.size(), m.entry_count());
}

}  // namespace
}  // namespace pnbbst

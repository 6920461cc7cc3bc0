// Ordered queries (successor/predecessor/min/max), bulk loading and the
// map adapter — extension features layered on the persistence substrate.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "core/validate.h"

namespace pnbbst {
namespace {

using Tree = PnbBst<long>;

TEST(OrderedQueries, EmptyTree) {
  Tree t;
  EXPECT_FALSE(t.successor(0).has_value());
  EXPECT_FALSE(t.predecessor(0).has_value());
  EXPECT_FALSE(t.min().has_value());
  EXPECT_FALSE(t.max().has_value());
}

TEST(OrderedQueries, SingleElement) {
  Tree t;
  t.insert(5);
  EXPECT_EQ(t.successor(5), 5);
  EXPECT_EQ(t.successor(4), 5);
  EXPECT_FALSE(t.successor(6).has_value());
  EXPECT_EQ(t.predecessor(5), 5);
  EXPECT_EQ(t.predecessor(6), 5);
  EXPECT_FALSE(t.predecessor(4).has_value());
  EXPECT_EQ(t.min(), 5);
  EXPECT_EQ(t.max(), 5);
}

TEST(OrderedQueries, MatchesStdSetAcrossSweep) {
  Tree t;
  std::set<long> model;
  Xoshiro256 rng(55);
  for (int i = 0; i < 1500; ++i) {
    const long k = static_cast<long>(rng.next_bounded(300));
    if (rng.next_bounded(2)) {
      t.insert(k);
      model.insert(k);
    } else {
      t.erase(k);
      model.erase(k);
    }
  }
  for (long q = -5; q <= 305; q += 3) {
    auto it = model.lower_bound(q);
    if (it == model.end()) {
      EXPECT_FALSE(t.successor(q).has_value()) << q;
    } else {
      EXPECT_EQ(t.successor(q), *it) << q;
    }
    auto pit = model.upper_bound(q);
    if (pit == model.begin()) {
      EXPECT_FALSE(t.predecessor(q).has_value()) << q;
    } else {
      EXPECT_EQ(t.predecessor(q), *std::prev(pit)) << q;
    }
  }
  EXPECT_EQ(t.min(), *model.begin());
  EXPECT_EQ(t.max(), *model.rbegin());
}

TEST(OrderedQueries, SnapshotQueriesSeeOldPhase) {
  Tree t;
  for (long k = 10; k <= 50; k += 10) t.insert(k);
  auto snap = t.snapshot();
  t.erase(30);
  t.insert(35);
  EXPECT_EQ(snap.successor(25), 30);   // 30 still there at the snapshot
  EXPECT_EQ(t.successor(25), 35);      // live tree moved on
  EXPECT_EQ(snap.predecessor(34), 30);
  EXPECT_EQ(snap.min(), 10);
  EXPECT_EQ(snap.max(), 50);
}

TEST(OrderedQueries, IterationViaSuccessor) {
  Tree t;
  for (long k : {7L, 1L, 9L, 3L, 5L}) t.insert(k);
  std::vector<long> collected;
  auto cur = t.min();
  while (cur) {
    collected.push_back(*cur);
    cur = t.successor(*cur + 1);
  }
  EXPECT_EQ(collected, (std::vector<long>{1, 3, 5, 7, 9}));
}

TEST(BulkLoad, BuildsCorrectSet) {
  std::vector<long> keys;
  for (long k = 0; k < 1000; k += 3) keys.push_back(k);
  Tree t(keys.begin(), keys.end());
  EXPECT_EQ(t.size(), keys.size());
  for (long k : keys) EXPECT_TRUE(t.contains(k));
  EXPECT_FALSE(t.contains(1));
  EXPECT_EQ(t.range_scan(0, 999), keys);
  auto rep = check_current(t);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(BulkLoad, EmptyRange) {
  std::vector<long> none;
  Tree t(none.begin(), none.end());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.insert(1));
}

TEST(BulkLoad, SingleKey) {
  std::vector<long> one{42};
  Tree t(one.begin(), one.end());
  EXPECT_TRUE(t.contains(42));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BulkLoad, TreeIsBalanced) {
  // A bulk-loaded tree of 2^k keys must have depth ~k, far below the
  // sorted-insertion depth of n.
  std::vector<long> keys;
  for (long k = 0; k < 4096; ++k) keys.push_back(k);
  Tree t(keys.begin(), keys.end());
  // Walk to the deepest leaf by always-left / always-right probes.
  auto depth_to = [&](long probe) {
    int d = 0;
    auto* n = static_cast<PnbNode<long>*>(t.debug_root());
    ExtKeyLess<long> less;
    while (!n->is_leaf()) {
      auto* in = as_internal(n);
      n = in->load_child(less(probe, in->key));
      ++d;
    }
    return d;
  };
  for (long probe : {0L, 1000L, 2048L, 4095L}) {
    EXPECT_LE(depth_to(probe), 16) << probe;
  }
}

TEST(BulkLoad, UpdatesWorkAfterLoading) {
  std::vector<long> keys{10, 20, 30};
  Tree t(keys.begin(), keys.end());
  EXPECT_TRUE(t.insert(15));
  EXPECT_TRUE(t.erase(20));
  EXPECT_EQ(t.range_scan(0, 100), (std::vector<long>{10, 15, 30}));
}

TEST(Get, ReturnsStoredKey) {
  Tree t;
  t.insert(42);
  EXPECT_EQ(t.get(42), 42);
  EXPECT_FALSE(t.get(41).has_value());
}

TEST(PnbMapTest, BasicKv) {
  PnbMap<long, std::string> m;
  EXPECT_TRUE(m.insert(1, "one"));
  EXPECT_TRUE(m.insert(2, "two"));
  EXPECT_FALSE(m.insert(1, "uno"));  // insert-if-absent
  EXPECT_EQ(m.get(1), "one");        // original value kept
  EXPECT_EQ(m.get(2), "two");
  EXPECT_FALSE(m.get(3).has_value());
  EXPECT_TRUE(m.contains(2));
  EXPECT_TRUE(m.erase(2));
  EXPECT_FALSE(m.get(2).has_value());
  EXPECT_EQ(m.size(), 1u);
}

TEST(PnbMapTest, AssignReplaces) {
  PnbMap<long, std::string> m;
  m.insert(1, "one");
  EXPECT_TRUE(m.assign(1, "uno"));
  EXPECT_EQ(m.get(1), "uno");
  EXPECT_FALSE(m.assign(9, "nine"));  // no previous mapping
  EXPECT_EQ(m.get(9), "nine");
}

TEST(PnbMapTest, RangeScanReturnsPairs) {
  PnbMap<long, long> m;
  for (long k = 0; k < 20; ++k) m.insert(k, k * k);
  const auto v = m.range_scan(3, 6);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], std::make_pair(3L, 9L));
  EXPECT_EQ(v[3], std::make_pair(6L, 36L));
  EXPECT_EQ(m.range_count(0, 19), 20u);
}

TEST(PnbMapTest, SnapshotIsolatesValues) {
  PnbMap<long, long> m;
  m.insert(1, 100);
  auto snap = m.snapshot();
  m.erase(1);
  m.insert(1, 200);
  EXPECT_TRUE(snap.contains(1));
  long seen = -1;
  snap.range_visit(0, 10, [&](long, long v) { seen = v; });
  EXPECT_EQ(seen, 100);  // old value at the snapshot's phase
  EXPECT_EQ(m.get(1), 200);
}

TEST(PnbMapTest, ConcurrentDisjointWriters) {
  PnbMap<long, long> m;
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < 4; ++ti) {
    pool.emplace_back([&, ti] {
      for (long i = 0; i < 2000; ++i) {
        const long k = static_cast<long>(ti) * 10000 + i;
        ASSERT_TRUE(m.insert(k, k * 2));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(m.size(), 8000u);
  EXPECT_EQ(m.get(30000 + 1234), 2 * (30000 + 1234));
}

}  // namespace
}  // namespace pnbbst

// Ordered queries (successor/predecessor/min/max), bulk loading and the
// map adapter — extension features layered on the persistence substrate.
// Every point and ordered snapshot read is a first-stop ScanHelper walk;
// the model sweeps check them on old snapshots, the spine tests on trees
// deep enough to spill the walk's stack.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory_resource>
#include <optional>
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

// The key of a read's result: the tree's reads return the key, the map's a
// (key, value) pair.
long key_of(long k) { return k; }
long key_of(const std::pair<long, long>& kv) { return kv.first; }

template <class T>
std::optional<long> key_of(const std::optional<T>& r) {
  if (!r) return std::nullopt;
  return key_of(*r);
}

// Checks every point and ordered read of snap against model, the set it
// froze, at each probe in [lo, hi]. value(k) is what get(k) returns for a
// key k of the model.
template <class Snap, class ValueOf>
void expect_reads_match(const Snap& snap, const std::set<long>& model,
                        long lo, long hi, ValueOf value) {
  for (long q = lo; q <= hi; ++q) {
    const bool present = model.count(q) > 0;
    EXPECT_EQ(snap.contains(q), present) << q;
    const auto got = snap.get(q);
    EXPECT_EQ(got.has_value(), present) << q;
    if (got && present) {
      EXPECT_EQ(*got, value(q)) << q;
    }
    const auto succ = model.lower_bound(q);
    EXPECT_EQ(key_of(snap.successor(q)),
              succ == model.end() ? std::nullopt : std::optional<long>(*succ))
        << q;
    const auto after = model.upper_bound(q);
    EXPECT_EQ(key_of(snap.predecessor(q)),
              after == model.begin()
                  ? std::nullopt
                  : std::optional<long>(*std::prev(after)))
        << q;
  }
  EXPECT_EQ(key_of(snap.min()), model.empty()
                                    ? std::nullopt
                                    : std::optional<long>(*model.begin()));
  EXPECT_EQ(key_of(snap.max()), model.empty()
                                    ? std::nullopt
                                    : std::optional<long>(*model.rbegin()));
}

// Random inserts and erases of keys in [0, 300), applied to the structure
// by apply(insert, k) and mirrored in model.
template <class Apply>
void churn(std::set<long>& model, std::uint64_t seed, int ops, Apply apply) {
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const long k = static_cast<long>(rng.next_bounded(300));
    const bool insert = rng.next_bounded(2) != 0;
    apply(insert, k);
    if (insert) {
      model.insert(k);
    } else {
      model.erase(k);
    }
  }
}

TEST(OrderedQueries, OldSnapshotMatchesItsModelAfterChurn) {
  // Every read of an old snapshot follows prev links back to its version:
  // the set as it was at snapshot(), whatever the tree does afterwards.
  Tree t;
  std::set<long> live;
  churn(live, 71, 1500, [&t](bool ins, long k) {
    ins ? t.insert(k) : t.erase(k);
  });
  const std::set<long> frozen = live;
  auto snap = t.snapshot();
  churn(live, 72, 3000, [&t](bool ins, long k) {
    ins ? t.insert(k) : t.erase(k);
  });
  ASSERT_NE(live, frozen);
  expect_reads_match(snap, frozen, -5, 305, [](long k) { return k; });
  expect_reads_match(t.snapshot(), live, -5, 305, [](long k) { return k; });
}

TEST(OrderedQueries, OldMapSnapshotMatchesItsModelAfterChurn) {
  // As above through PnbMap, whose snapshot forwards to the tree's with a
  // key probe; the churn re-inserts keys with new values, and the old
  // snapshot still reads the old ones.
  PnbMap<long, long> m;
  std::set<long> live;
  churn(live, 73, 1500, [&m](bool ins, long k) {
    ins ? m.insert(k, 2 * k) : m.erase(k);
  });
  const std::set<long> frozen = live;
  auto snap = m.snapshot();
  churn(live, 74, 3000, [&m](bool ins, long k) {
    if (!ins) {
      m.erase(k);
    } else if (!m.insert(k, 3 * k)) {
      m.assign(k, 3 * k);
    }
  });
  ASSERT_NE(live, frozen);
  expect_reads_match(snap, frozen, -5, 305, [](long k) { return 2 * k; });
  expect_reads_match(m.snapshot(), live, -5, 305,
                     [](long k) { return 3 * k; });
}

// Counts the allocations of std::pmr's default resource while installed:
// a scan stack that outgrows its on-frame slots spills there.
class SpillCounter : public std::pmr::memory_resource {
 public:
  SpillCounter() : prev_(std::pmr::set_default_resource(this)) {}
  ~SpillCounter() override { std::pmr::set_default_resource(prev_); }
  std::size_t allocs = 0;

 private:
  void* do_allocate(std::size_t n, std::size_t align) override {
    ++allocs;
    return prev_->allocate(n, align);
  }
  void do_deallocate(void* p, std::size_t n, std::size_t align) override {
    prev_->deallocate(p, n, align);
  }
  bool do_is_equal(const memory_resource& o) const noexcept override {
    return this == &o;
  }
  std::pmr::memory_resource* prev_;
};

TEST(OrderedQueries, SpinesSpillFirstStopWalksAndAnswerExactly) {
  // Descending inserts of 500 even keys build a left spine: each internal
  // node's right child is a leaf. min and successor walk down it and leave
  // that leaf pending at each level, so their stack outgrows its 64
  // on-frame slots and spills. Ascending inserts build a right spine, where
  // max and predecessor spill the same way. contains and get walk [k, k],
  // one root-to-leaf path, and never spill. Every answer stays exact.
  constexpr long kKeys = 500;
  for (const bool left_spine : {true, false}) {
    SCOPED_TRACE(left_spine ? "left spine" : "right spine");
    Tree t;
    std::set<long> model;
    for (long i = 0; i < kKeys; ++i) {
      const long k = 2 * (left_spine ? kKeys - 1 - i : i);
      ASSERT_TRUE(t.insert(k));
      model.insert(k);
    }
    auto snap = t.snapshot();
    SpillCounter spills;
    if (left_spine) {
      EXPECT_EQ(snap.min(), 0L);
      EXPECT_EQ(snap.successor(1L), 2L);
    } else {
      EXPECT_EQ(snap.max(), 2 * kKeys - 2);
      EXPECT_EQ(snap.predecessor(2 * kKeys - 5), 2 * kKeys - 6);
    }
    EXPECT_GT(spills.allocs, 0u);
    spills.allocs = 0;
    for (long q = -1; q <= 2 * kKeys; ++q) {
      EXPECT_EQ(snap.contains(q), model.count(q) > 0) << q;
      EXPECT_EQ(snap.get(q).has_value(), model.count(q) > 0) << q;
    }
    EXPECT_EQ(spills.allocs, 0u);
    expect_reads_match(snap, model, -1, 2 * kKeys, [](long k) { return k; });
  }
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

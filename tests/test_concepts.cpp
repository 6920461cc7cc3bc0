// Compile-time contract suite for core/concepts.h: every container in the
// repo is checked against the concept surface it claims, and
// representative *negative* cases prove the concepts actually discriminate
// (a concept that accepts everything enforces nothing).
#include "core/concepts.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "core/one_shot_queries.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "nbbst/nb_bst.h"
#include "shard/sharded_map.h"

namespace pnbbst {
namespace {

// --- Positive: structures model their claimed surface ----------------------

static_assert(OrderedSet<PnbBst<long>, long>);
static_assert(OrderedSet<NbBst<long>, long>);
static_assert(OrderedSet<LockedBst<long>, long>);
static_assert(OrderedSet<CowBst<long>, long>);
static_assert(OrderedSet<LfSkipList<long>, long>);

// Every set structure answers the whole set surface itself (also asserted
// in each structure's header; restated here as the test-suite ledger).
static_assert(PrefixScannable<PnbBst<long>, long>);
static_assert(PrefixScannable<NbBst<long>, long>);
static_assert(PrefixScannable<LockedBst<long>, long>);
static_assert(PrefixScannable<CowBst<long>, long>);
static_assert(PrefixScannable<LfSkipList<long>, long>);
static_assert(Snapshottable<PnbBst<long>>);
static_assert(PhasedSnapshottable<PnbBst<long>>);

static_assert(OrderedMap<PnbMap<long, long>, long, long>);
static_assert(OrderedMap<PnbMap<long, std::string>, long, std::string>);
static_assert(MapScannable<PnbMap<long, long>, long, long>);
static_assert(PhasedSnapshottable<PnbMap<long, long>>);

static_assert(OrderedMap<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(MapScannable<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(Snapshottable<ShardedPnbMap<long, long, 4>>);

// --- Negative: the concepts reject non-conforming types ---------------------

// std::set is an ordered container but has the wrong signatures (insert
// returns a pair, erase returns a count).
static_assert(!OrderedSet<std::set<long>, long>);
static_assert(!Scannable<std::set<long>, long>);
static_assert(!Snapshottable<std::set<long>>);

// A set is not a map and a map is not a set (a map's insert takes (k, v)).
static_assert(!OrderedMap<PnbBst<long>, long, long>);
static_assert(!OrderedSet<PnbMap<long, long>, long>);

// Sharded snapshots have per-shard phases, not one global phase.
static_assert(!PhasedSnapshottable<ShardedPnbMap<long, long, 4>>);

// Only the PNB-BST has a snapshot; the baselines answer live.
static_assert(!Snapshottable<NbBst<long>>);
static_assert(!Snapshottable<LockedBst<long>>);
static_assert(!Snapshottable<CowBst<long>>);
static_assert(!Snapshottable<LfSkipList<long>>);

// The range folds (RangeQueries, core/one_shot_queries.h) drop out where
// the call they make is ill-formed instead of failing hard: a type that
// inherits them but has no range_visit has no range_scan / range_count,
// and a bound the structure cannot order is rejected.
struct NoVisit : RangeQueries<NoVisit, long> {
  bool insert(const long&) { return false; }
  bool erase(const long&) { return false; }
  bool contains(const long&) { return false; }
};
static_assert(OrderedSet<NoVisit, long>);
static_assert(!Scannable<NoVisit, long>);
static_assert(!Scannable<LockedBst<long>, std::string>);
static_assert(!Scannable<PnbBst<std::string>, long>);

// The one-shot queries (core/one_shot_queries.h) exist only where the
// container's Snapshot answers them: the sharded snapshot has no ordered
// queries, and chunked counts need integral keys.
template <class M>
concept HasOrderedQueries = requires(M m, const long& k) {
  m.successor(k);
  m.predecessor(k);
  m.min();
  m.max();
};
static_assert(HasOrderedQueries<PnbBst<long>>);
static_assert(HasOrderedQueries<PnbMap<long, long>>);
static_assert(!HasOrderedQueries<LockedBst<long>>);
static_assert(!HasOrderedQueries<ShardedPnbMap<long, long, 4>>);
static_assert(ParallelScannable<PnbBst<long>, long>);
static_assert(!ParallelScannable<PnbBst<std::string>, std::string>);

// Key-type mismatches are rejected, not silently converted: a string-keyed
// map does not model the long-keyed concept.
static_assert(!OrderedMap<PnbMap<std::string, long>, long, long>);

// --- ProbeFor (the heterogeneous-lookup gate, core/keyspace.h) --------------

// With a transparent comparator, string_view probes a string-keyed tree.
static_assert(ProbeFor<std::string_view, std::string, std::less<>>);
// With the default (non-transparent) comparator it cannot.
static_assert(!ProbeFor<std::string_view, std::string, std::less<std::string>>);
// The map comparator lets bare keys (and ints converting to long) probe
// entry-keyed trees.
static_assert(ProbeFor<long, MapEntry<long, std::string>,
                       MapEntryLess<long, std::string>>);
static_assert(ProbeFor<int, MapEntry<long, std::string>,
                       MapEntryLess<long, std::string>>);
// ExtKey itself is never a probe (it has dedicated overloads).
static_assert(!ProbeFor<ExtKey<long>, long, std::less<long>>);

// A runtime anchor so the suite registers with CTest.
TEST(Concepts, CompileTimeContractsHold) { SUCCEED(); }

}  // namespace
}  // namespace pnbbst

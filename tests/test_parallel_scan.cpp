// Parallel scan engine (src/scan/), deterministic single-threaded-driver
// coverage (unit label; the multi-writer torture lives in
// test_parallel_scan_concurrent.cpp):
//
//  * partition_range: exact tiling of inclusive integral intervals,
//    including negative bounds, degenerate widths, and the full int64
//    domain;
//  * plan_tasks / plan_chunks: the one task planner (oversplit cap, grain
//    floor, sequential fast path) and chunk plans whose per-chunk scans
//    concatenate into the sequential scan;
//  * ScanExecutor / run_tasks: exactly-once execution, caller
//    participation, width-0 and saturated-pool degradation, nesting;
//  * the scan's on-frame DFS stack and window: steady-state counts on a
//    tree, map and sharded snapshot make no heap allocation, nested scans
//    are exact, a deep spine spills an ordered walk's stack and a spine
//    forest spills a count's, and both stay exact;
//  * differential equality: parallel chunked counts == sequential counts
//    on the same snapshot, across tree / map / sharded front-end;
//  * concept surface: ParallelScannable modeled exactly where documented.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "common.h"
#include "core/pnb_map.h"
#include "nbbst/nb_bst.h"
#include "scan/executor.h"
#include "scan/parallel_scan.h"
#include "scan/partition.h"
#include "shard/sharded_map.h"
#include "util/random.h"

// Heap allocations made by this thread, counted by the replacement global
// allocation functions below (the stack tests read it around a scan loop).
// Every form is replaced, so each pointer is freed by the family that
// allocated it (a sanitizer runtime would otherwise serve the forms left
// out). std::pmr's default upstream, where a spilling scan stack gets its
// memory, allocates through the aligned forms. They stay out of line:
// inlined, GCC pairs a malloc with a caller's delete and warns of a
// mismatch that is not there.
thread_local std::size_t t_heap_allocs = 0;

namespace {

[[gnu::noinline]] void* counted_alloc(std::size_t n,
                                      std::size_t align) noexcept {
  ++t_heap_allocs;
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

[[gnu::noinline]] void* counted_alloc_or_throw(std::size_t n,
                                               std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

using std::align_val_t;
using std::nothrow_t;
using std::size_t;

void* operator new(size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](size_t n, const nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, size_t) noexcept { counted_free(p); }
void operator delete[](void* p, size_t) noexcept { counted_free(p); }
void operator delete(void* p, align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, size_t, align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, size_t, align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept {
  counted_free(p);
}

namespace pnbbst {
namespace {

using scan::ParallelScanOptions;
using scan::ScanExecutor;
using scan::partition_range;

// --- Concept surface ---------------------------------------------------------

static_assert(ParallelScannable<PnbBst<long>, long>);
static_assert(ParallelScannable<PnbMap<long, long>, long>);
static_assert(ParallelScannable<ShardedPnbMap<long, long, 4>, long>);
// Non-integral keys cannot be chunked by key arithmetic.
static_assert(!ParallelScannable<PnbBst<std::string>, std::string>);
// Baselines have no multi-version snapshot to chunk.
static_assert(!ParallelScannable<LockedBst<long>, long>);
static_assert(!ParallelScannable<CowBst<long>, long>);
static_assert(!ParallelScannable<NbBst<long>, long>);
static_assert(!ParallelScannable<LfSkipList<long>, long>);

// --- partition_range ---------------------------------------------------------

template <class B>
void check_tiling(B lo, B hi, std::size_t n) {
  const auto chunks = partition_range(lo, hi, n);
  ASSERT_FALSE(chunks.empty());
  EXPECT_LE(chunks.size(), n);
  EXPECT_EQ(chunks.front().first, lo);
  EXPECT_EQ(chunks.back().second, hi);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i].first, chunks[i].second) << "chunk " << i;
    if (i > 0) {
      // Adjacent: next chunk starts exactly one key after the previous ends.
      EXPECT_EQ(chunks[i].first, static_cast<B>(chunks[i - 1].second + 1))
          << "chunk " << i;
    }
  }
}

TEST(Partition, TilesTypicalIntervals) {
  check_tiling<long>(0, 999, 4);
  check_tiling<long>(-500, 499, 8);
  check_tiling<long>(0, 6, 3);    // sizes 3/2/2
  check_tiling<long>(5, 5, 4);    // single key
  check_tiling<int>(-7, 13, 5);
  check_tiling<std::uint64_t>(0, 1000, 16);
}

TEST(Partition, MoreChunksThanKeysYieldsSingletons) {
  const auto chunks = partition_range<long>(10, 13, 32);
  ASSERT_EQ(chunks.size(), 4u);
  for (long i = 0; i < 4; ++i) {
    EXPECT_EQ(chunks[i].first, 10 + i);
    EXPECT_EQ(chunks[i].second, 10 + i);
  }
}

TEST(Partition, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(partition_range<long>(5, 4, 8).empty());   // hi < lo
  EXPECT_TRUE(partition_range<long>(0, 100, 0).empty()); // zero chunks
  const auto one = partition_range<long>(-3, 9, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::pair<long, long>{-3, 9}));
}

TEST(Partition, FullInt64DomainDoesNotOverflow) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  check_tiling<std::int64_t>(kMin, kMax, 8);
  check_tiling<std::int64_t>(kMin, kMin + 3, 8);
  check_tiling<std::int64_t>(kMax - 3, kMax, 2);
  check_tiling<std::uint64_t>(0, std::numeric_limits<std::uint64_t>::max(), 7);
  // want == 1 over the full domain: span == UINT64_MAX, the one case where
  // the per-chunk size q + 1 could wrap to 0 and drop the only chunk.
  check_tiling<std::int64_t>(kMin, kMax, 1);
  check_tiling<std::uint64_t>(0, std::numeric_limits<std::uint64_t>::max(), 1);
  const auto one = partition_range<std::int64_t>(kMin, kMax, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::pair<std::int64_t, std::int64_t>{kMin, kMax}));
}

// --- plan_tasks / plan_chunks -----------------------------------------------

TEST(PlanTasks, OversplitsPerThreadAndHonoursTheGrain) {
  ScanExecutor ex(4);
  const ParallelScanOptions four(4u, ex);
  EXPECT_EQ(scan::plan_tasks(four, 0), 0u);
  EXPECT_EQ(scan::plan_tasks(four, 3), 3u);  // fewer items than the cap
  EXPECT_EQ(scan::plan_tasks(four, 1u << 20), 4 * scan::kOversplit);
  // Ingest grain: below two grains one task, then one task per grain up
  // to the oversplit cap.
  EXPECT_EQ(scan::plan_tasks(four, scan::kIngestGrain - 1, scan::kIngestGrain),
            1u);
  EXPECT_EQ(scan::plan_tasks(four, 5 * scan::kIngestGrain, scan::kIngestGrain),
            5u);
  EXPECT_EQ(scan::plan_tasks(four, 1000 * scan::kIngestGrain,
                             scan::kIngestGrain),
            4 * scan::kOversplit);
  // One thread: always sequential.
  EXPECT_EQ(scan::plan_tasks(ParallelScanOptions(1u, ex), 1u << 20), 1u);
  // threads == 0 resolves to the executor width.
  EXPECT_EQ(scan::plan_tasks(ParallelScanOptions(0u, ex), 1u << 20),
            ex.width() * scan::kOversplit);
}

TEST(PlanChunks, TilesTheIntervalIncludingTheFullDomain) {
  ScanExecutor ex(4);
  const auto chunks = scan::plan_chunks(ParallelScanOptions(4u, ex), 0L, 999L);
  ASSERT_EQ(chunks.size(), 4 * scan::kOversplit);
  EXPECT_EQ(chunks.front().first, 0L);
  EXPECT_EQ(chunks.back().second, 999L);
  EXPECT_TRUE(scan::plan_chunks(ParallelScanOptions(4u, ex), 5L, 4L).empty());
  EXPECT_EQ(scan::plan_chunks(ParallelScanOptions(4u, ex), 7L, 9L).size(), 3u);
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  for (unsigned threads : {1u, 4u}) {
    const auto full =
        scan::plan_chunks(ParallelScanOptions(threads, ex), kMin, kMax);
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(full.front().first, kMin);
    EXPECT_EQ(full.back().second, kMax);
  }
}

// --- ScanExecutor / run_tasks ------------------------------------------------

TEST(ScanExecutorTest, RunTasksExecutesEachIndexExactlyOnce) {
  ScanExecutor ex(3);
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  scan::run_tasks(ParallelScanOptions(4u, ex), kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ScanExecutorTest, WidthZeroExecutorRunsEverythingInline) {
  ScanExecutor ex(0);
  EXPECT_EQ(ex.width(), 0u);
  std::size_t ran = 0;
  scan::run_tasks(ParallelScanOptions(8u, ex), 64,
                  [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 64u);          // caller did all the work
  EXPECT_EQ(ex.tasks_executed(), 0u);
}

TEST(ScanExecutorTest, SingleThreadOptionSkipsTheExecutor) {
  ScanExecutor ex(2);
  std::size_t ran = 0;
  scan::run_tasks(ParallelScanOptions(1u, ex), 16,
                  [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 16u);
  EXPECT_EQ(ex.tasks_executed(), 0u);  // sequential fast path, no submits
}

TEST(ScanExecutorTest, NestedRunTasksDoesNotDeadlock) {
  ScanExecutor ex(2);
  std::atomic<int> leaf_runs{0};
  scan::run_tasks(ParallelScanOptions(3u, ex), 4, [&](std::size_t) {
    scan::run_tasks(ParallelScanOptions(3u, ex), 4,
                    [&](std::size_t) { leaf_runs.fetch_add(1); });
  });
  EXPECT_EQ(leaf_runs.load(), 16);
}

TEST(ScanExecutorTest, DefaultWidthIsBounded) {
  const unsigned w = ScanExecutor::default_width();
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, 16u);
  EXPECT_EQ(ScanExecutor::shared().width(), w);
}

// --- The scan's DFS stack ----------------------------------------------------

std::vector<long> ascending(long n) {
  std::vector<long> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), 0L);
  return keys;
}

TEST(ScanStack, SteadyStateScansMakeNoHeapAllocation) {
  // The windowed count's stack and ring live in scan_tree's frame too, for
  // the tree and for the map and sharded snapshots that hand it the count.
  const std::vector<long> keys = ascending(1 << 16);
  PnbBst<long> tree;
  tree.bulk_load(keys);
  PnbMap<long, long> map;
  std::vector<std::pair<long, long>> items;
  for (long k : keys) items.emplace_back(k, k);
  map.bulk_load(items);
  ShardedPnbMap<long, long, 8> sharded(RangeSplitter<long>{0, 1L << 16});
  sharded.bulk_load(items);
  const auto msnap = map.snapshot();
  const auto ssnap = sharded.snapshot();
  // Warm-up: this thread's first pin registers it with the reclaimer.
  ASSERT_EQ(tree.range_count(0L, (1L << 16) - 1), keys.size());
  ASSERT_EQ(msnap.range_count(0L, (1L << 16) - 1), keys.size());
  ASSERT_EQ(ssnap.range_count(0L, (1L << 16) - 1), keys.size());
  std::size_t counted = 0;
  std::size_t map_counted = 0;
  std::size_t sharded_counted = 0;
  const std::size_t before = t_heap_allocs;
  for (int i = 0; i < 100; ++i) {
    counted += tree.range_count(static_cast<long>(i), (1L << 16) - 1);
    map_counted += msnap.range_count(static_cast<long>(i), (1L << 16) - 1);
    sharded_counted += ssnap.range_count(static_cast<long>(i), (1L << 16) - 1);
  }
  const std::size_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(counted, 100 * keys.size() - 99 * 100 / 2);
  EXPECT_EQ(map_counted, counted);
  EXPECT_EQ(sharded_counted, counted);
}

TEST(ScanStack, NestedScanOnTheSameTreeIsExact) {
  const std::vector<long> keys = ascending(4096);
  PnbBst<long> tree;
  tree.bulk_load(keys);
  std::vector<long> outer;
  std::vector<std::size_t> inner;
  tree.range_visit(1000L, 1199L, [&](const long& k) {
    outer.push_back(k);
    inner.push_back(tree.range_count(k, k + 99));
  });
  ASSERT_EQ(outer.size(), 200u);
  for (std::size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i], 1000 + static_cast<long>(i));
    EXPECT_EQ(inner[i], 100u) << "inner scan from " << outer[i];
  }
}

TEST(ScanStack, DeepLeftSpineSpillsAndScansExactly) {
  // Descending inserts hang each new key left of the last: a left spine
  // about as deep as the key count, so the ordered walk's DFS stack
  // outgrows its 64 on-frame slots and spills to the heap. (A count's
  // window takes the spine's pending right leaves as fast as they are
  // pushed, so its stack stays short and does not spill.)
  constexpr long kKeys = 500;
  PnbBst<long> tree;
  for (long k = kKeys - 1; k >= 0; --k) ASSERT_TRUE(tree.insert(k));
  auto snap = tree.snapshot();
  std::vector<long> visited;
  visited.reserve(kKeys);
  const std::size_t before = t_heap_allocs;
  snap.range_visit(0L, kKeys - 1, [&visited](long k) { visited.push_back(k); });
  EXPECT_GT(t_heap_allocs - before, 0u);  // a visit allocates only to spill
  EXPECT_EQ(visited, ascending(kKeys));
  EXPECT_EQ(tree.range_count(0L, kKeys - 1), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(tree.range_scan(0L, kKeys - 1), ascending(kKeys));
  EXPECT_EQ(tree.range_count(100L, 399L), 300u);
  ScanExecutor ex(4);
  EXPECT_EQ(tree.parallel_range_count(0L, kKeys - 1,
                                      ParallelScanOptions(4u, ex)),
            static_cast<std::size_t>(kKeys));
}

// Inserts lo + (hi - lo) / 2 first, then each half the same way: a balanced
// top over the given keys.
void insert_bisecting(PnbBst<long>& tree, const std::vector<long>& keys,
                      std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  ASSERT_TRUE(tree.insert(keys[mid]));
  insert_bisecting(tree, keys, lo, mid);
  insert_bisecting(tree, keys, mid + 1, hi);
}

TEST(ScanStack, SpineForestSpillsTheCountWindowAndCountsExactly) {
  // A balanced top over 64 group keys, each group then filled by
  // descending inserts: 64 left spines 63 deep. The count's window runs 32
  // of those spines at once, and each leaves its pending right leaves on
  // the one stack, so the stack outgrows its 1024 on-frame slots (about
  // 2000 by a model of the walk) and spills to the heap.
  constexpr long kGroups = 64;
  constexpr long kGroupKeys = 64;
  constexpr long kKeys = kGroups * kGroupKeys;
  PnbBst<long> tree;
  std::vector<long> tops;
  for (long g = 0; g < kGroups; ++g) tops.push_back(g * kGroupKeys);
  insert_bisecting(tree, tops, 0, tops.size());
  for (long g = 0; g < kGroups; ++g) {
    for (long k = (g + 1) * kGroupKeys - 1; k > g * kGroupKeys; --k) {
      ASSERT_TRUE(tree.insert(k));
    }
  }
  auto snap = tree.snapshot();
  const std::size_t before = t_heap_allocs;
  EXPECT_EQ(snap.range_count(0L, kKeys - 1), static_cast<std::size_t>(kKeys));
  EXPECT_GT(t_heap_allocs - before, 0u);  // a count allocates only to spill
  EXPECT_EQ(snap.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(snap.range_scan(0L, kKeys - 1), ascending(kKeys));
  EXPECT_EQ(snap.range_count(100L, 3999L), 3900u);
  ScanExecutor ex(4);
  EXPECT_EQ(snap.parallel_range_count(0L, kKeys - 1,
                                      ParallelScanOptions(4u, ex)),
            static_cast<std::size_t>(kKeys));
}

// --- Differential: parallel == sequential ------------------------------------

class ParallelScanDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(20260726);
    for (int i = 0; i < 10000; ++i) {
      tree_.insert(static_cast<long>(rng.next_bounded(1 << 15)));
    }
  }
  PnbBst<long> tree_;
};

// Scans every chunk of plan_chunks' plan at one snapshot and concatenates:
// the tiling parallel_range_count relies on must reproduce the sequential
// scan exactly (no gap, no overlap, ascending).
template <class Snap>
auto chunked_scan(const Snap& snap, long lo, long hi,
                  const ParallelScanOptions& opts) {
  decltype(snap.range_scan(lo, hi)) out;
  for (const auto& [clo, chi] : scan::plan_chunks(opts, lo, hi)) {
    const auto part = snap.range_scan(clo, chi);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST_F(ParallelScanDifferential, SnapshotChunkedCountMatchesSequential) {
  ScanExecutor ex(4);
  auto snap = tree_.snapshot();
  const std::pair<long, long> ranges[] = {
      {0, (1 << 15) - 1}, {100, 5000}, {9999, 10001}, {5, 5}, {40, 39}};
  for (const auto& [lo, hi] : ranges) {
    const auto seq = snap.range_scan(lo, hi);
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
      ParallelScanOptions opts(threads, ex);
      EXPECT_EQ(chunked_scan(snap, lo, hi, opts), seq)
          << "[" << lo << "," << hi << "] x" << threads;
      EXPECT_EQ(snap.parallel_range_count(lo, hi, opts), seq.size())
          << "[" << lo << "," << hi << "] x" << threads;
    }
  }
}

TEST_F(ParallelScanDifferential, FullInt64DomainSingleThreadMatchesSequential) {
  // Regression: plan_chunks requests a single chunk whenever threads
  // resolve to 1; over the full int64 domain that chunk must still cover
  // [kMin, kMax] instead of vanishing to an empty plan.
  constexpr long kMin = std::numeric_limits<long>::min();
  constexpr long kMax = std::numeric_limits<long>::max();
  ScanExecutor ex(4);
  auto snap = tree_.snapshot();
  const auto seq = snap.range_scan(kMin, kMax);
  ASSERT_EQ(seq.size(), snap.range_count(kMin, kMax));
  for (unsigned threads : {1u, 8u}) {
    ParallelScanOptions opts(threads, ex);
    EXPECT_EQ(chunked_scan(snap, kMin, kMax, opts), seq) << threads;
    EXPECT_EQ(snap.parallel_range_count(kMin, kMax, opts), seq.size())
        << threads;
  }
}

TEST_F(ParallelScanDifferential, LiveTreeParallelCountMatchesSequential) {
  ScanExecutor ex(4);
  EXPECT_EQ(tree_.parallel_range_count(0L, (1L << 15) - 1,
                                       ParallelScanOptions(4u, ex)),
            tree_.range_count(0L, (1L << 15) - 1));
}

TEST_F(ParallelScanDifferential, LiveTreeSubrangeParallelCount) {
  ScanExecutor ex(3);
  EXPECT_EQ(
      tree_.parallel_range_count(100L, 9000L, ParallelScanOptions(3u, ex)),
      tree_.range_count(100L, 9000L));
}

TEST(ParallelScanMap, CountsMatchSequential) {
  PnbMap<long, long> map;
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(1 << 13));
    map.insert(k, k * 7);
  }
  ScanExecutor ex(4);
  auto snap = map.snapshot();
  const auto seq = snap.range_scan(0L, (1L << 13) - 1);
  for (unsigned threads : {1u, 2u, 8u}) {
    const ParallelScanOptions opts(threads, ex);
    EXPECT_EQ(chunked_scan(snap, 0L, (1L << 13) - 1, opts), seq);
    EXPECT_EQ(snap.parallel_range_count(0L, (1L << 13) - 1, opts),
              seq.size());
  }
  EXPECT_EQ(map.parallel_range_count(10L, 4000L, ParallelScanOptions(4u, ex)),
            map.range_count(10L, 4000L));
}

TEST(ParallelScanSharded, MergedParallelCountMatchesSequential) {
  ShardedPnbMap<long, long, 8> map(RangeSplitter<long>{0, 1 << 13});
  Xoshiro256 rng(11);
  for (int i = 0; i < 6000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(1 << 13));
    map.insert(k, k + 1);
  }
  ScanExecutor ex(4);
  for (unsigned threads : {1u, 2u, 8u}) {
    ParallelScanOptions opts(threads, ex);
    EXPECT_EQ(map.parallel_range_count(0L, (1L << 13) - 1, opts),
              map.range_count(0L, (1L << 13) - 1));
    // Narrow span: single-shard query through the same parallel surface.
    EXPECT_EQ(map.parallel_range_count(100L, 120L, opts),
              map.range_count(100L, 120L));
  }
  // Uneven cuts, keys past hi: every query below crosses all three shard
  // boundaries, and the widest runs into the clamped top shard.
  ShardedPnbMap<long, long, 4> uneven(
      RangeSplitter<long>::with_boundaries(0, 2000, {7, 1500, 1501}, 4));
  for (long k = 0; k < 3000; k += 3) uneven.insert(k, k);
  for (const auto& [lo, hi] : {std::pair<long, long>{0, 2999}, {5, 1600}}) {
    ASSERT_EQ(uneven.splitter().shard_span(lo, hi, 4),
              (std::pair<std::size_t, std::size_t>{0, 4}));
    EXPECT_EQ(
        uneven.parallel_range_count(lo, hi, ParallelScanOptions(4u, ex)),
        uneven.range_count(lo, hi));
  }
}

TEST(ParallelScanSharded, WideSingleShardSpanChunksAndMatchesSequential) {
  // A span that never crosses a shard boundary still fans out: the count
  // is tiled into key chunks, not into shards, so a wide hot-range query
  // inside one shard is split like any other. The count must match the
  // sequential one at every width, and the pool must have run chunks.
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 1 << 16});
  Xoshiro256 rng(29);
  for (int i = 0; i < 8000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(1 << 14));  // shard 0
    map.insert(k, k * 3);
  }
  ScanExecutor ex(4);
  const std::pair<long, long> spans[] = {
      {0, (1 << 14) - 1}, {1, (1 << 14) - 2}, {5000, 9000}, {7, 7}};
  for (const auto& [lo, hi] : spans) {
    const std::size_t seq = map.range_count(lo, hi);
    for (unsigned threads : {1u, 2u, 8u}) {
      ParallelScanOptions opts(threads, ex);
      EXPECT_EQ(map.parallel_range_count(lo, hi, opts), seq)
          << "[" << lo << "," << hi << "] x" << threads;
    }
  }
  EXPECT_TRUE(test::pool_ran_tasks(ex, 0));

  // NumShards == 1 front-end: the composite Snapshot is chunked the same
  // way, so the differential runs against one held handle (bit-identical
  // by the snapshot contract, not just by quiescence).
  ShardedPnbMap<long, long, 1> one(RangeSplitter<long>{0, 1 << 14});
  for (long k = 0; k < (1 << 14); k += 3) one.insert(k, k + 7);
  auto snap = one.snapshot();
  const auto seq = snap.range_scan(0L, (1L << 14) - 1);
  for (unsigned threads : {1u, 3u, 8u}) {
    ParallelScanOptions opts(threads, ex);
    EXPECT_EQ(chunked_scan(snap, 0L, (1L << 14) - 1, opts), seq) << threads;
    EXPECT_EQ(snap.parallel_range_count(0L, (1L << 14) - 1, opts),
              seq.size())
        << threads;
  }
}

}  // namespace
}  // namespace pnbbst

// Unit coverage for the src/mem/ arena layer (DESIGN.md §11): slot
// alignment, slab/freelist reuse, shard isolation, stats exactness — plus
// an arena-vs-heap differential on PnbBst: same operation stream, and the
// same 8-thread partitioned churn the concurrent differential suite uses,
// must produce bit-identical scan results under either allocator policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common.h"
#include "core/pnb_bst.h"
#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "nbbst/nb_bst.h"

namespace pnbbst {
namespace {

using mem::AllocStats;
using mem::ArenaAlloc;
using mem::ArenaDomain;

TEST(Arena, SlotsAreCachelineAlignedAcrossClasses) {
  ArenaDomain dom;
  for (std::size_t bytes : {1ul, 8ul, 63ul, 64ul, 65ul, 128ul, 200ul,
                            ArenaDomain::kMaxSlotBytes}) {
    for (int i = 0; i < 16; ++i) {
      void* p = dom.alloc_slot(bytes);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLine, 0u)
          << "bytes=" << bytes << " i=" << i;
      // Never inside the slab header line.
      EXPECT_NE(reinterpret_cast<std::uintptr_t>(p) %
                    ArenaDomain::kSlabBytes,
                0u);
    }
  }
}

TEST(Arena, FreedSlotIsRecycledBeforeBumpAdvances) {
  ArenaDomain dom;
  void* a = dom.alloc_slot(64);
  ArenaDomain::free_slot(a);
  // LIFO freelist: the very next same-class alloc on this thread (same
  // shard) must reuse the freed slot instead of carving a new one.
  void* b = dom.alloc_slot(64);
  EXPECT_EQ(a, b);
  const AllocStats s = dom.stats();
  EXPECT_EQ(s.freelist_hits, 1u);
  EXPECT_EQ(s.slab_refills, 1u);  // one slab covered both allocs
}

TEST(Arena, DistinctDomainsNeverShareSlabs) {
  ArenaDomain d1;
  ArenaDomain d2;
  void* p1 = d1.alloc_slot(64);
  void* p2 = d2.alloc_slot(64);
  const auto slab1 = reinterpret_cast<std::uintptr_t>(p1) &
                     ~(ArenaDomain::kSlabBytes - 1);
  const auto slab2 = reinterpret_cast<std::uintptr_t>(p2) &
                     ~(ArenaDomain::kSlabBytes - 1);
  EXPECT_NE(slab1, slab2);
  EXPECT_EQ(d1.stats().slab_bytes, ArenaDomain::kSlabBytes);
  EXPECT_EQ(d2.stats().slab_bytes, ArenaDomain::kSlabBytes);
}

TEST(Arena, StatsCountEveryAllocFreeAndRefill) {
  ArenaDomain dom;
  constexpr int kN = 100;
  std::vector<void*> slots;
  for (int i = 0; i < kN; ++i) slots.push_back(dom.alloc_slot(128));
  AllocStats s = dom.stats();
  EXPECT_EQ(s.slot_allocs, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.slot_frees, 0u);
  EXPECT_EQ(s.slots_live(), static_cast<std::uint64_t>(kN));
  EXPECT_GE(s.slab_refills, 1u);
  EXPECT_EQ(s.slab_bytes, s.slab_refills * ArenaDomain::kSlabBytes);
  for (void* p : slots) ArenaDomain::free_slot(p);
  s = dom.stats();
  EXPECT_EQ(s.slot_frees, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.slots_live(), 0u);
  // Freed slots recycle: a second wave served entirely by the freelist.
  for (int i = 0; i < kN; ++i) slots[i] = dom.alloc_slot(128);
  s = dom.stats();
  EXPECT_EQ(s.freelist_hits, static_cast<std::uint64_t>(kN));
}

TEST(Arena, PerThreadShardsServeConcurrentAllocs) {
  ArenaDomain dom;
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&dom] {
      std::vector<void*> mine;
      mine.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        void* p = dom.alloc_slot(64);
        // Touch the slot: races with another thread's slot would be
        // caught by TSan/ASan in the sanitizer sweeps.
        *static_cast<std::uint64_t*>(p) = 0xabcd;
        mine.push_back(p);
      }
      // Every slot this thread got is distinct.
      std::set<void*> uniq(mine.begin(), mine.end());
      EXPECT_EQ(uniq.size(), mine.size());
      for (void* p : mine) ArenaDomain::free_slot(p);
    });
  }
  for (auto& th : pool) th.join();
  const AllocStats s = dom.stats();
  EXPECT_EQ(s.slot_allocs, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.slots_live(), 0u);
}

TEST(Arena, ReserveRunStartsFreshSlabWhenShortOnRoom) {
  ArenaDomain dom;
  // Nearly fill the current slab's bump region.
  const std::size_t per_slab = ArenaDomain::kSlabBytes / 64 - 1;
  for (std::size_t i = 0; i < per_slab - 4; ++i) dom.alloc_slot(64);
  const std::uint64_t refills_before = dom.stats().slab_refills;
  dom.reserve_run(64, 64);  // cannot fit in the ~4 remaining slots
  EXPECT_EQ(dom.stats().slab_refills, refills_before + 1);
}

// --- Allocator-policy plumbing on the trees ---------------------------------

TEST(ArenaTree, PnbBstModelAgreementOnScopedDomain) {
  // Scoped-domain pattern: domain BEFORE reclaimer, reclaimer drains in
  // its destructor, then the domain frees its slabs.
  ArenaDomain dom;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats, ArenaAlloc>
      tree(rec, ArenaAlloc(dom));
  const std::set<long> model = test::run_model_ops(tree, 77, 6000, 256);
  const auto scanned = tree.range_scan(0L, 255L);
  EXPECT_TRUE(test::is_sorted_unique(scanned));
  EXPECT_EQ(scanned, std::vector<long>(model.begin(), model.end()));
  EXPECT_GT(dom.stats().slot_allocs, 0u);
}

TEST(ArenaTree, NbBstModelAgreementOnScopedDomain) {
  ArenaDomain dom;
  EpochReclaimer rec;
  NbBst<long, std::less<long>, EpochReclaimer, NullOpStats, ArenaAlloc>
      tree(rec, ArenaAlloc(dom));
  test::run_model_ops(tree, 78, 6000, 256);
  EXPECT_GT(dom.stats().slot_allocs, 0u);
}

TEST(ArenaTree, BulkLoadUsesArenaRuns) {
  ArenaDomain dom;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats, ArenaAlloc>
      tree(rec, ArenaAlloc(dom));
  std::vector<long> keys;
  for (long k = 0; k < 20000; ++k) keys.push_back(k);
  EXPECT_EQ(tree.bulk_load(keys, scan::ParallelScanOptions(4)), 20000u);
  EXPECT_EQ(tree.range_count(0L, 19999L), 20000u);
  // ~20k leaves + ~20k internals landed in slabs.
  EXPECT_GT(dom.stats().slot_allocs, 40000u);
  EXPECT_GT(dom.stats().slab_refills, 1u);
}

// Arena-backed and heap-backed trees given identical per-thread operation
// schedules (partitioned keys, the concurrent-differential churn harness
// shape at 8 threads) must converge to bit-identical scan results: the
// allocator policy must never leak into visible semantics.
TEST(ArenaTree, ArenaHeapDifferentialUnderConcurrentChurn) {
  PnbBst<long> heap_tree;
  ArenaDomain dom;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats, ArenaAlloc>
      arena_tree(rec, ArenaAlloc(dom));
  constexpr unsigned kThreads = 8;
  constexpr long kRange = 128;

  auto run = [&](auto& tree) {
    std::vector<std::thread> pool;
    for (unsigned ti = 0; ti < kThreads; ++ti) {
      pool.emplace_back([&, ti] {
        Xoshiro256 rng(thread_seed(9191, ti));
        const long base = static_cast<long>(ti) * kRange;
        for (int i = 0; i < 10000; ++i) {
          const long k = base + static_cast<long>(rng.next_bounded(kRange));
          if (rng.next_bounded(2)) {
            tree.insert(k);
          } else {
            tree.erase(k);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  };
  run(heap_tree);
  run(arena_tree);

  // Per-thread streams are deterministic and keys are partitioned, so the
  // final set is interleaving-independent: both trees must agree exactly.
  const long hi = static_cast<long>(kThreads) * kRange;
  const auto from_heap = heap_tree.range_scan(0L, hi);
  const auto from_arena = arena_tree.range_scan(0L, hi);
  EXPECT_TRUE(test::is_sorted_unique(from_heap));
  EXPECT_EQ(from_heap, from_arena);
}

}  // namespace
}  // namespace pnbbst

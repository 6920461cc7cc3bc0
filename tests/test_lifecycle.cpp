// Lifetime of reshard generations: a cutover retires the replaced tables
// and shard maps straight to the epoch reclaimer, composite snapshots hold
// them through their epoch pins, the retired gauges fall when the memory
// is freed, and batch shedding above the retired-bytes watermark.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "reclaim/epoch.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

// --- The whole stack: automatic reclamation through ShardedPnbMap ---------

TEST(Lifecycle, ShardedReshardReclaimsWhenLastSnapshotDrops) {
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; ++k) map.insert(k, k * 7);

  auto snap = map.snapshot();
  EXPECT_EQ(map.lifetime().active_leases(), 1u);
  EXPECT_EQ(map.lifetime().current_generation(), 0u);

  EXPECT_EQ(map.reshard(RangeSplitter<long>{0, 2000}), 1000u);
  EXPECT_EQ(map.lifetime().current_generation(), 1u);
  // The pre-reshard snapshot's pin holds the retired generation: 4
  // replaced maps.
  EXPECT_EQ(map.retired_maps(), 4u);
  EXPECT_GT(map.retired_bytes(), 0u);
  // The snapshot still answers from its world.
  EXPECT_EQ(snap.size(), 1000u);
  EXPECT_EQ(snap.get(999).value_or(-1), 999 * 7);

  { auto drop = std::move(snap); }
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
  // Nothing pins the generation any more: the reclaimer frees it, and
  // the gauges fall with the memory.
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.size(), 1000u);
}

// One snapshot held across three cutovers keeps all three retired
// generations alive through its single pin, and keeps answering its
// original contents exactly while the live map moves on.
TEST(Lifecycle, SnapshotOutlivesSeveralReshards) {
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; k += 2) map.insert(k, k * 3);
  auto snap = map.snapshot();
  const auto original = snap.range_scan(0, 999);
  ASSERT_EQ(original.size(), 500u);

  const RangeSplitter<long> routings[] = {
      {0, 2000}, {0, 500}, {0, 1000, {100, 200, 300}}};
  for (std::size_t i = 0; i < 3; ++i) {
    // Live writes between cutovers change the map, never the snapshot.
    for (long k = static_cast<long>(i); k < 1000; k += 3) {
      map.erase(k);
      map.insert(k + 1, -k);
    }
    map.reshard(routings[i]);
    EXPECT_EQ(map.retired_maps(), 4 * (i + 1)) << "after cutover " << i;
    EXPECT_EQ(map.lifetime().current_generation(), i + 1);
  }
  EXPECT_NE(map.range_scan(0, 999), original);
  EXPECT_EQ(snap.range_scan(0, 999), original);
  EXPECT_EQ(snap.size(), 500u);
  EXPECT_EQ(snap.range_count(0, 999), 500u);
  for (long k = 0; k < 1000; ++k) {
    EXPECT_EQ(snap.get(k), k % 2 == 0 ? std::optional<long>(k * 3)
                                      : std::nullopt)
        << "key " << k;
  }
  EXPECT_EQ(map.retired_maps(), 12u);

  { auto drop = std::move(snap); }
  // The gauges count memory, not handles: they fall when the reclaimer
  // frees the maps, not when the pin drops.
  EXPECT_EQ(map.retired_maps(), 12u);
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
}

// A generation handed off on a thread that then idles is freed by the next
// grace period on whichever thread keeps retiring — it must not wait in
// the idle thread's limbo until that thread retires again or exits. The
// arena's live-slot gauge shows the old shard maps coming back.
TEST(Lifecycle, HandedOffGenerationIsFreedWhileRetiringThreadIdles) {
  using ArenaMap = ShardedPnbMap<long, long, 4, EpochReclaimer, NullOpStats,
                                 mem::ArenaAlloc>;
  constexpr long kKeys = 1 << 16;
  const auto live_slots = [] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      n += mem::ArenaDomain::pooled(i).stats().slots_live();
    }
    return n;
  };
  EpochReclaimer epochs;
  ArenaMap map(RangeSplitter<long>{0, kKeys}, epochs);
  std::vector<std::pair<long, long>> items;
  for (long k = 0; k < kKeys; ++k) items.emplace_back(k, k);
  const std::uint64_t before_load = live_slots();
  map.bulk_load(std::move(items));
  const std::uint64_t one_copy = live_slots() - before_load;

  std::mutex mu;
  std::condition_variable cv;
  bool resharded = false;
  bool release = false;
  std::thread resharder([&] {
    map.reshard(RangeSplitter<long>{0, 2 * kKeys});
    std::unique_lock<std::mutex> lk(mu);
    resharded = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });  // idle, but alive
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return resharded; });
  }
  EXPECT_EQ(map.retired_maps(), 4u);  // retired at cutover, not yet freed
  EXPECT_GE(live_slots(), before_load + 2 * one_copy - one_copy / 8);

  // Another thread keeps updating: its periodic scans advance the epoch
  // and must free the old generation while the resharder still idles.
  Xoshiro256 rng(4242);
  std::uint64_t live = live_slots();
  for (int i = 0; i < 400000 && live > before_load + one_copy + one_copy / 2;
       ++i) {
    const long k = static_cast<long>(rng.next_bounded(kKeys));
    map.erase(k);
    map.insert(k, k);
    if (i % 1024 == 0) live = live_slots();
  }
  EXPECT_LT(live_slots(), before_load + one_copy + one_copy / 2)
      << "the old shard maps are still waiting in the idle thread's limbo";
  // The retiring thread's scan ran the deleters: the gauges fell with the
  // memory.
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  resharder.join();
}

// The retired-bytes gauge prices a replaced arena map at the slot bytes
// its nodes really hold. A bulk-loaded tree is a full binary tree of
// leaves and internals (internals = leaves - 1), so the pooled domains'
// live-slot delta fixes both counts; each record's slot size is read off
// the arena as the stride between two carves from a fresh domain.
TEST(Lifecycle, RetiredBytesGaugeMatchesArenaSlotBytes) {
  using ArenaMap = ShardedPnbMap<long, long, 4, EpochReclaimer, NullOpStats,
                                 mem::ArenaAlloc>;
  using Tree = ArenaMap::Map::Tree;
  constexpr long kKeys = 1 << 15;
  const auto stride = []<class T>() {
    mem::ArenaDomain domain;
    mem::ArenaAlloc alloc(domain);
    T* a = alloc.create<T>();
    T* b = alloc.create<T>();
    const auto bytes = reinterpret_cast<char*>(b) - reinterpret_cast<char*>(a);
    mem::ArenaAlloc::destroy(a);
    mem::ArenaAlloc::destroy(b);
    return static_cast<std::size_t>(bytes);
  };
  const std::size_t leaf_slot = stride.operator()<Tree::Leaf>();
  const std::size_t internal_slot = stride.operator()<Tree::Internal>();
  const auto live_slots = [] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      n += mem::ArenaDomain::pooled(i).stats().slots_live();
    }
    return n;
  };

  EpochReclaimer epochs;
  ArenaMap map(RangeSplitter<long>{0, kKeys}, epochs);
  std::vector<std::pair<long, long>> items;
  for (long k = 0; k < kKeys; ++k) items.emplace_back(k, k);
  const std::uint64_t before_load = live_slots();
  map.bulk_load(std::move(items));
  const std::uint64_t slots = live_slots() - before_load;
  const std::size_t leaves = static_cast<std::size_t>((slots + 1) / 2);
  const std::size_t real_bytes =
      leaves * leaf_slot + (leaves - 1) * internal_slot;

  // The snapshot keeps the replaced maps on the gauge. It drops before the
  // map and `epochs` frees them in its destructor, after the map is gone:
  // the deleters lower the gauges through their shared counter block.
  auto snap = map.snapshot();
  map.reshard(RangeSplitter<long>{0, 2 * kKeys});
  ASSERT_EQ(map.retired_maps(), 4u);
  const std::size_t gauge = map.retired_bytes();
  const double ratio =
      static_cast<double>(gauge) / static_cast<double>(real_bytes);
  EXPECT_GT(ratio, 0.95) << "gauge " << gauge << " B, slots " << real_bytes;
  EXPECT_LT(ratio, 1.05) << "gauge " << gauge << " B, slots " << real_bytes;
}

// --- Admission control -----------------------------------------------------

TEST(Lifecycle, BatchAdmissionDefersAboveWatermark) {
  using Op = ingest::BatchOp<long, long>;
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; ++k) map.insert(k, k);

  constexpr std::size_t kWatermark = 1;  // any retired generation trips it
  map.set_shed_watermark(kWatermark);

  // Below the watermark: admitted as usual.
  std::vector<Op> ops;
  ops.push_back(Op::insert(2000, 1));
  auto r = map.apply_batch(std::move(ops));
  EXPECT_TRUE(r.admitted());
  EXPECT_EQ(r.inserted, 1u);
  EXPECT_TRUE(map.erase(2000));

  // A held snapshot pins the reshard's retired generation over the mark.
  auto snap = map.snapshot();
  map.reshard(RangeSplitter<long>{0, 4000});
  ASSERT_GT(map.retired_bytes(), kWatermark);
  const std::size_t debt = map.retired_bytes();

  std::vector<Op> deferred_ops;
  for (long k = 0; k < 64; ++k) deferred_ops.push_back(Op::insert(5000 + k, k));
  r = map.apply_batch(std::move(deferred_ops));
  EXPECT_FALSE(r.admitted());
  EXPECT_EQ(r.deferred, 64u);
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(r.changed(), 0u);
  // Deferral left the structure AND the debt untouched (gauge bounded).
  EXPECT_EQ(map.retired_bytes(), debt);
  EXPECT_FALSE(map.contains(5000));
  EXPECT_EQ(map.admission_stats().admitted, 1u);
  EXPECT_EQ(map.admission_stats().deferred, 1u);

  // Dropping the snapshot reopens admission at once: the over-watermark
  // batch itself has the reclaimer free what no pin holds, with no other
  // traffic in between.
  { auto drop = std::move(snap); }
  std::vector<Op> retry_ops;
  for (long k = 0; k < 64; ++k) retry_ops.push_back(Op::insert(5000 + k, k));
  r = map.apply_batch(std::move(retry_ops));
  EXPECT_TRUE(r.admitted());
  EXPECT_EQ(r.inserted, 64u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.admission_stats().deferred, 1u);
}

}  // namespace
}  // namespace pnbbst

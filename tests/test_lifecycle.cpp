// Snapshot-lease lifecycle (src/lifecycle/lifetime_manager.h): generation
// retirement gated by leases, ordered oldest-first draining, gauges,
// automatic reclamation through the whole sharded stack, and batch
// shedding above the retired-bytes watermark.
#include "lifecycle/lifetime_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
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

using lifecycle::LifetimeManager;
using lifecycle::RetiredResource;

// A resource whose deleter flips a flag, so tests can observe exactly when
// the manager handed it to the reclaimer (and the reclaimer freed it).
struct Tracked {
  explicit Tracked(std::atomic<int>* counter) : freed(counter) {}
  std::atomic<int>* freed;
};

void delete_tracked(void* p) {
  auto* t = static_cast<Tracked*>(p);
  t->freed->fetch_add(1, std::memory_order_relaxed);
  delete t;
}

RetiredResource tracked_resource(std::atomic<int>* counter,
                                 std::size_t bytes, bool primary) {
  return {new Tracked(counter), &delete_tracked, bytes, primary};
}

TEST(Lifecycle, RetireWithoutLeasesReclaimsImmediately) {
  EpochReclaimer epochs;
  std::atomic<int> freed{0};
  {
    LifetimeManager<EpochReclaimer> mgr(epochs);
    EXPECT_EQ(mgr.retired_bytes(), 0u);
    EXPECT_EQ(mgr.current_generation(), 0u);

    std::vector<RetiredResource> rs;
    rs.push_back(tracked_resource(&freed, 100, true));
    rs.push_back(tracked_resource(&freed, 50, false));
    mgr.retire_generation(std::move(rs));

    // No lease covered generation 0: gauges fall at retire time (hand-off
    // to the epoch reclaimer), the new generation is open.
    EXPECT_EQ(mgr.retired_bytes(), 0u);
    EXPECT_EQ(mgr.retired_objects(), 0u);
    EXPECT_EQ(mgr.current_generation(), 1u);
  }
  epochs.quiescent_flush();
  EXPECT_EQ(freed.load(), 2);
}

TEST(Lifecycle, LeaseDefersReclamationUntilRelease) {
  EpochReclaimer epochs;
  std::atomic<int> freed{0};
  LifetimeManager<EpochReclaimer> mgr(epochs);

  auto lease = mgr.acquire();
  EXPECT_TRUE(lease.active());
  EXPECT_EQ(lease.generation(), 0u);
  EXPECT_EQ(mgr.active_leases(), 1u);

  std::vector<RetiredResource> rs;
  rs.push_back(tracked_resource(&freed, 4096, true));
  mgr.retire_generation(std::move(rs));

  // The lease pins generation 0, so its resources are retained.
  EXPECT_EQ(mgr.retired_bytes(), 4096u);
  EXPECT_EQ(mgr.retired_objects(), 1u);

  lease.release();
  EXPECT_FALSE(lease.active());
  EXPECT_EQ(mgr.active_leases(), 0u);
  // Release of the last covering lease reclaims synchronously.
  EXPECT_EQ(mgr.retired_bytes(), 0u);
  EXPECT_EQ(mgr.retired_objects(), 0u);

  // A generation closed with no lease at all is handed over at once.
  std::vector<RetiredResource> rs2;
  rs2.push_back(tracked_resource(&freed, 10, true));
  rs2.push_back(tracked_resource(&freed, 10, false));
  mgr.retire_generation(std::move(rs2));
  EXPECT_EQ(mgr.retired_bytes(), 0u);
  EXPECT_EQ(mgr.retired_objects(), 0u);
  // Both hand-off paths leave the freeing to the reclaimer's grace period.
  epochs.quiescent_flush();
  EXPECT_EQ(freed.load(), 3);
}

TEST(Lifecycle, OlderLeaseGatesYoungerGenerations) {
  // A resource retired at generation g may be referenced through any older
  // retired table, so a lease on generation 0 must hold generations 1 and
  // 2 too (oldest-first draining).
  EpochReclaimer epochs;
  std::atomic<int> freed{0};
  LifetimeManager<EpochReclaimer> mgr(epochs);

  auto old_lease = mgr.acquire();  // generation 0
  std::vector<RetiredResource> rs0;
  rs0.push_back(tracked_resource(&freed, 10, true));
  mgr.retire_generation(std::move(rs0));  // closes gen 0

  auto mid_lease = mgr.acquire();  // generation 1
  EXPECT_EQ(mid_lease.generation(), 1u);
  std::vector<RetiredResource> rs1;
  rs1.push_back(tracked_resource(&freed, 20, true));
  mgr.retire_generation(std::move(rs1));  // closes gen 1

  EXPECT_EQ(mgr.retired_bytes(), 30u);
  EXPECT_EQ(mgr.retired_objects(), 2u);

  // Dropping the YOUNGER lease reclaims nothing: gen 1's resources wait
  // for every lease of generations <= 1, and the gen-0 lease is alive.
  mid_lease.release();
  EXPECT_EQ(mgr.retired_bytes(), 30u);
  EXPECT_EQ(mgr.retired_objects(), 2u);

  // Dropping the oldest lease drains BOTH generations in order.
  old_lease.release();
  EXPECT_EQ(mgr.retired_bytes(), 0u);
  EXPECT_EQ(mgr.retired_objects(), 0u);
  epochs.quiescent_flush();
  EXPECT_EQ(freed.load(), 2);
}

TEST(Lifecycle, LeakyHandOffDropsTheGaugesWithoutFreeing) {
  // The gauges count what leases hold, not what is freed: with a
  // LeakyReclaimer the hand-off at the last lease drop still lowers them,
  // though the reclaimer never frees the resource.
  LeakyReclaimer leaky;
  std::atomic<int> freed{0};
  LifetimeManager<LeakyReclaimer> mgr(leaky);
  std::vector<RetiredResource> rs;
  rs.push_back(tracked_resource(&freed, 10, true));
  auto lease = mgr.acquire();
  mgr.retire_generation(std::move(rs));
  EXPECT_EQ(mgr.retired_objects(), 1u);
  lease.release();
  // Leaky: handed over but never freed — the gauge still fell (hand-off).
  EXPECT_EQ(mgr.retired_objects(), 0u);
  EXPECT_EQ(freed.load(), 0);
}

TEST(Lifecycle, ManagerDestructorFreesGatedGenerations) {
  EpochReclaimer epochs;
  std::atomic<int> freed{0};
  {
    LifetimeManager<EpochReclaimer> mgr(epochs);
    std::vector<RetiredResource> rs;
    rs.push_back(tracked_resource(&freed, 10, true));
    auto lease = mgr.acquire();
    mgr.retire_generation(std::move(rs));
    // Leak-free even when a lease is dropped only right before
    // destruction and nothing else ever runs.
    lease.release();
  }
  epochs.quiescent_flush();
  EXPECT_EQ(freed.load(), 1);
}

TEST(Lifecycle, ConcurrentLeaseChurnNeverLosesAGeneration) {
  // Hammer acquire/release from several threads while the main thread
  // retires generations; every retired resource must eventually reclaim
  // once all leases are gone. (The seq_cst acquire/close handshake is the
  // thing under test; ASan/TSan sweeps of the unit label cover the races.)
  EpochReclaimer epochs;
  std::atomic<int> freed{0};
  LifetimeManager<EpochReclaimer> mgr(epochs);
  std::atomic<bool> stop{false};
  std::vector<std::thread> holders;
  for (int t = 0; t < 3; ++t) {
    holders.emplace_back([&mgr, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        auto lease = mgr.acquire();
        EXPECT_TRUE(lease.active());
      }
    });
  }
  constexpr int kGens = 200;
  for (int i = 0; i < kGens; ++i) {
    std::vector<RetiredResource> rs;
    rs.push_back(tracked_resource(&freed, 8, true));
    mgr.retire_generation(std::move(rs));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : holders) th.join();
  EXPECT_EQ(mgr.retired_bytes(), 0u) << "a generation was left gated";
  EXPECT_EQ(mgr.retired_objects(), 0u);
  epochs.quiescent_flush();
  EXPECT_EQ(freed.load(), kGens);
}

// --- The whole stack: automatic reclamation through ShardedPnbMap ---------

TEST(Lifecycle, ShardedReshardReclaimsWhenLastSnapshotDrops) {
  ShardedPnbMap<long, long, 4> map(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; ++k) map.insert(k, k * 7);

  auto snap = map.snapshot();
  EXPECT_EQ(map.lifetime().active_leases(), 1u);
  EXPECT_EQ(snap.generation(), 0u);

  EXPECT_EQ(map.reshard(RangeSplitter<long>{0, 2000}), 1000u);
  // The pre-reshard snapshot pins the retired generation: 4 replaced maps.
  EXPECT_EQ(map.retired_maps(), 4u);
  EXPECT_GT(map.retired_bytes(), 0u);
  // The snapshot still answers from its world.
  EXPECT_EQ(snap.size(), 1000u);
  EXPECT_EQ(snap.get(999).value_or(-1), 999 * 7);

  { auto drop = std::move(snap); }
  // Automatic: the last covering lease dropped, nothing left to purge.
  EXPECT_EQ(map.retired_maps(), 0u);
  EXPECT_EQ(map.retired_bytes(), 0u);
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
  EXPECT_EQ(map.size(), 1000u);
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
  EXPECT_EQ(map.retired_maps(), 0u);  // no lease: handed off at cutover
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

  auto snap = map.snapshot();  // keeps the replaced maps on the gauge
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

  // Reclamation (snapshot drop) reopens admission.
  { auto drop = std::move(snap); }
  EXPECT_EQ(map.retired_bytes(), 0u);
  std::vector<Op> retry_ops;
  for (long k = 0; k < 64; ++k) retry_ops.push_back(Op::insert(5000 + k, k));
  r = map.apply_batch(std::move(retry_ops));
  EXPECT_TRUE(r.admitted());
  EXPECT_EQ(r.inserted, 64u);
}

}  // namespace
}  // namespace pnbbst

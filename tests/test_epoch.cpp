#include "reclaim/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/reclaimer.h"
#include "util/random.h"

namespace pnbbst {
namespace {

static_assert(Reclaimer<EpochReclaimer>);

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

void retire_tracked(EpochReclaimer& r, Tracked* t) {
  r.retire(t, [](void* p) { delete static_cast<Tracked*>(p); });
}

TEST(Epoch, RetireEventuallyFrees) {
  EpochReclaimer r;
  for (int i = 0; i < 1000; ++i) retire_tracked(r, new Tracked);
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(r.retired_count(), 1000u);
  EXPECT_EQ(r.freed_count(), 1000u);
  EXPECT_EQ(r.pending_count(), 0u);
}

// collect() frees a shared retire as soon as no pin holds it, with no
// further retires on any thread; a pin that predates the retire holds it.
TEST(Epoch, CollectFreesSharedRetiresNoPinHolds) {
  EpochReclaimer r;
  const int before = Tracked::live.load();
  const auto free_tracked = [](void* p) { delete static_cast<Tracked*>(p); };
  {
    auto guard = r.pin();
    r.retire_shared(new Tracked, free_tracked);
    r.collect();
    EXPECT_EQ(Tracked::live.load(), before + 1);
  }
  r.collect();
  EXPECT_EQ(Tracked::live.load(), before);
  EXPECT_EQ(r.pending_count(), 0u);
}

TEST(Epoch, PinBlocksReclamation) {
  EpochReclaimer r;
  static std::atomic<bool> freed{false};
  freed.store(false);
  auto* obj = new int(7);
  std::atomic<bool> pinned{false};
  std::atomic<bool> retired{false};
  std::atomic<bool> release{false};

  std::thread holder([&] {
    auto guard = r.pin();
    pinned.store(true);
    pinned.notify_all();
    retired.wait(false);
    // We pinned strictly before the retire, so the object must still be
    // alive no matter how many epochs other threads push through.
    EXPECT_FALSE(freed.load());
    release.wait(false);
  });

  pinned.wait(false);
  r.retire(obj, [](void* p) {
    freed.store(true);
    delete static_cast<int*>(p);
  });
  // Push many epochs from this thread.
  for (int i = 0; i < 500; ++i) {
    r.try_advance();
    r.retire(new int(i), [](void* p) { delete static_cast<int*>(p); });
  }
  retired.store(true);
  retired.notify_all();
  release.store(true);
  release.notify_all();
  holder.join();
  r.quiescent_flush();
  EXPECT_TRUE(freed.load());
  EXPECT_EQ(r.pending_count(), 0u);
}

TEST(Epoch, AdvanceBlockedByStalePin) {
  EpochReclaimer r;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    auto guard = r.pin();
    pinned.store(true);
    pinned.notify_all();
    release.wait(false);
  });
  pinned.wait(false);
  const auto e0 = r.epoch();
  // One advance may succeed (holder pinned the current epoch), further ones
  // must stall because the holder's announced epoch is now stale.
  r.try_advance();
  r.try_advance();
  r.try_advance();
  EXPECT_LE(r.epoch(), e0 + 1);
  release.store(true);
  release.notify_all();
  holder.join();
  r.quiescent_flush();
}

TEST(Epoch, NestedPinsKeepOutermost) {
  EpochReclaimer r;
  auto g1 = r.pin();
  {
    auto g2 = r.pin();
    auto g3 = r.pin();
  }
  // Still pinned: an object retired now must not be freed by advances.
  auto* obj = new Tracked;
  retire_tracked(r, obj);
  for (int i = 0; i < 5; ++i) r.try_advance();
  EXPECT_EQ(Tracked::live.load(), 1);
  {
    auto release = std::move(g1);  // dropping the moved-to guard unpins
  }
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, GuardMoveSemantics) {
  EpochReclaimer r;
  auto g = r.pin();
  EpochReclaimer::Guard h;
  EXPECT_FALSE(h.active());
  h = std::move(g);
  EXPECT_TRUE(h.active());
  EXPECT_FALSE(g.active());  // NOLINT(bugprone-use-after-move)
}

TEST(Epoch, ManyThreadsChurn) {
  EpochReclaimer r;
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&r, t] {
      Xoshiro256 rng(thread_seed(1, static_cast<unsigned>(t)));
      for (int i = 0; i < kOps; ++i) {
        auto guard = r.pin();
        retire_tracked(r, new Tracked);
        if (rng.next_bounded(64) == 0) r.try_advance();
      }
    });
  }
  for (auto& th : pool) th.join();
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(r.retired_count(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(r.pending_count(), 0u);
}

TEST(Epoch, ThreadRecordsAreRecycled) {
  EpochReclaimer r;
  for (int round = 0; round < 8; ++round) {
    std::thread worker([&r] {
      auto guard = r.pin();
      retire_tracked(r, new Tracked);
    });
    worker.join();
  }
  // Sequential thread lifetimes must reuse records, not grow the registry
  // monotonically.
  EXPECT_LE(r.registered_threads(), 2u);
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, ExitingThreadOrphansAreFreed) {
  EpochReclaimer r;
  std::thread worker([&r] {
    // Retire without ever advancing: items stay in this thread's limbo and
    // must migrate to the orphan list at thread exit.
    for (int i = 0; i < 10; ++i) retire_tracked(r, new Tracked);
  });
  worker.join();
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Epoch, ReentrantRetireFromDeleter) {
  // A deleter that retires another object — the pattern the tree's
  // node/Info chain produces. Must not corrupt limbo lists.
  EpochReclaimer r;
  struct Outer {
    EpochReclaimer* r;
    Tracked* inner;
  };
  for (int i = 0; i < 200; ++i) {
    auto* outer = new Outer{&r, new Tracked};
    r.retire(outer, [](void* p) {
      auto* o = static_cast<Outer*>(p);
      o->r->retire(o->inner,
                   [](void* q) { delete static_cast<Tracked*>(q); });
      delete o;
    });
  }
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(r.pending_count(), 0u);
}

TEST(Epoch, SharedInstanceIsSingleton) {
  EXPECT_EQ(&EpochReclaimer::shared(), &EpochReclaimer::shared());
}

TEST(Epoch, StatsAreConsistent) {
  EpochReclaimer r;
  for (int i = 0; i < 10; ++i) retire_tracked(r, new Tracked);
  EXPECT_EQ(r.retired_count(), 10u);
  EXPECT_EQ(r.retired_count(), r.freed_count() + r.pending_count());
  r.quiescent_flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
}  // namespace pnbbst

#include "reclaim/leaky.h"

#include <gtest/gtest.h>

#include "reclaim/reclaimer.h"
#include "shard/sharded_map.h"

namespace pnbbst {
namespace {

static_assert(Reclaimer<LeakyReclaimer>);

// A leaky sharded map never frees a retired generation, so its retired
// gauge never falls: a shed watermark would defer every batch after the
// first reshard. The combination is rejected at compile time.
template <class M>
constexpr bool kTakesShedWatermark =
    requires(M& m) { m.set_shed_watermark(std::size_t{1}); };
static_assert(!kTakesShedWatermark<ShardedPnbMap<long, long, 4,
                                                 LeakyReclaimer>>);
static_assert(kTakesShedWatermark<ShardedPnbMap<long, long, 4>>);

TEST(Leaky, RetireOnlyCounts) {
  LeakyReclaimer r;
  int target = 42;
  r.retire(&target, [](void*) { FAIL() << "leaky must never free"; });
  EXPECT_EQ(r.retired_count(), 1u);
  EXPECT_EQ(r.freed_count(), 0u);
  EXPECT_EQ(r.pending_count(), 1u);
}

TEST(Leaky, CollectFreesNothing) {
  LeakyReclaimer r;
  int target = 7;
  r.retire_shared(&target, [](void*) { FAIL() << "leaky must never free"; });
  r.collect();
  EXPECT_EQ(r.freed_count(), 0u);
  EXPECT_EQ(r.pending_count(), 1u);
}

TEST(Leaky, PinIsFree) {
  LeakyReclaimer r;
  {
    auto g = r.pin();
    (void)g;
    auto g2 = r.pin();  // nested pins fine
    (void)g2;
  }
  EXPECT_EQ(r.retired_count(), 0u);
}

TEST(Leaky, GuardMovable) {
  LeakyReclaimer r;
  auto g = r.pin();
  auto g2 = std::move(g);
  (void)g2;
}

TEST(Leaky, SharedInstanceIsSingleton) {
  EXPECT_EQ(&LeakyReclaimer::shared(), &LeakyReclaimer::shared());
}

TEST(Leaky, CountsAccumulate) {
  LeakyReclaimer r;
  int x;
  for (int i = 0; i < 100; ++i) r.retire(&x, [](void*) {});
  EXPECT_EQ(r.retired_count(), 100u);
}

}  // namespace
}  // namespace pnbbst

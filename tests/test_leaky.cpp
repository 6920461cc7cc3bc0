#include "reclaim/leaky.h"

#include <gtest/gtest.h>

#include "reclaim/reclaimer.h"

namespace pnbbst {
namespace {

static_assert(Reclaimer<LeakyReclaimer>);

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

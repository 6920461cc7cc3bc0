// Adaptive-sharding unit coverage (DESIGN.md §15): the write-path
// KeySampler, explicit RangeSplitter boundaries, and the Rebalancer's
// sense/decide/act loop driven deterministically through tick() against
// a private MetricsRegistry — write skew sensed from the key sample,
// quantile boundary selection, the predicted-benefit gate, settling after
// one useful reshard, cooldown hysteresis, the min-samples gate, and the
// exported pnb_rebalance_* families.
#include "shard/rebalance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/adapters.h"
#include "obs/registry.h"
#include "shard/key_sampler.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using StatsMap = ShardedPnbMap<long, long, 4, EpochReclaimer, CountingOpStats>;

TEST(KeySampler, OffByDefaultAndZeroCost) {
  KeySampler<long> ks;
  for (long k = 0; k < 1000; ++k) ks.maybe_record(k);
  EXPECT_EQ(ks.recorded(), 0u);
  EXPECT_TRUE(ks.snapshot().empty());
}

TEST(KeySampler, OneInOneRecordsEverythingUntilWrap) {
  KeySampler<long> ks(1);
  for (long k = 0; k < 100; ++k) ks.maybe_record(k);
  EXPECT_EQ(ks.recorded(), 100u);
  const auto snap = ks.snapshot();
  ASSERT_EQ(snap.size(), 100u);
  // 1-in-1 from one thread is exact and ordered.
  for (long k = 0; k < 100; ++k) EXPECT_EQ(snap[k], k);
}

TEST(KeySampler, RingWrapKeepsLiveWindowBounded) {
  KeySampler<long> ks(1);
  const long n = static_cast<long>(KeySampler<long>::kSlots) * 2 + 17;
  for (long k = 0; k < n; ++k) ks.maybe_record(k);
  EXPECT_EQ(ks.recorded(), static_cast<std::uint64_t>(n));
  const auto snap = ks.snapshot();
  EXPECT_EQ(snap.size(), KeySampler<long>::kSlots);
  // Every surviving key is from the most recent lap or the one before
  // (the slot being overwritten when the snapshot read it).
  for (const long k : snap) {
    EXPECT_GE(k, n - 2 * static_cast<long>(KeySampler<long>::kSlots));
  }
}

TEST(KeySampler, SampleEveryNThinsTheStream) {
  KeySampler<long> ks(8);
  for (long k = 0; k < 800; ++k) ks.maybe_record(k);
  // The shared thread-local countdown may be mid-cycle from an earlier
  // test, so allow one sample of slack around 800/8.
  EXPECT_GE(ks.recorded(), 99u);
  EXPECT_LE(ks.recorded(), 101u);
}

TEST(RangeSplitterCuts, ExplicitBoundariesRouteByUpperBound) {
  const auto sp =
      RangeSplitter<long>::with_boundaries(0, 1000, {100, 300, 600}, 4);
  ASSERT_EQ(sp.cuts.size(), 3u);
  // Shard i = number of cuts <= k: [0,100) | [100,300) | [300,600) |
  // [600,1000), with clamping outside [lo, hi).
  EXPECT_EQ(sp.shard_of(-5, 4), 0u);
  EXPECT_EQ(sp.shard_of(0, 4), 0u);
  EXPECT_EQ(sp.shard_of(99, 4), 0u);
  EXPECT_EQ(sp.shard_of(100, 4), 1u);
  EXPECT_EQ(sp.shard_of(299, 4), 1u);
  EXPECT_EQ(sp.shard_of(300, 4), 2u);
  EXPECT_EQ(sp.shard_of(600, 4), 3u);
  EXPECT_EQ(sp.shard_of(999, 4), 3u);
  EXPECT_EQ(sp.shard_of(5000, 4), 3u);
  // Monotone and total, like the equal-width mode.
  std::size_t prev = 0;
  for (long k = -10; k < 1010; ++k) {
    const std::size_t s = sp.shard_of(k, 4);
    ASSERT_LT(s, 4u);
    ASSERT_GE(s, prev) << k;
    prev = s;
  }
  // shard_span stays exact for cut boundaries.
  EXPECT_EQ(sp.shard_span(100, 299, 4),
            (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(sp.shard_span(50, 700, 4),
            (std::pair<std::size_t, std::size_t>{0, 4}));
}

TEST(RangeSplitterCuts, FactorySanitizesBoundaries) {
  // Unsorted, duplicated, out-of-range, and too many cuts all normalize.
  const auto sp = RangeSplitter<long>::with_boundaries(
      0, 100, {90, 10, 10, -5, 0, 100, 250, 50, 70, 80}, 4);
  // Survivors sorted and interior: {10, 50, 70, 80, 90} -> first 3.
  ASSERT_EQ(sp.cuts.size(), 3u);
  EXPECT_EQ(sp.cuts[0], 10);
  EXPECT_EQ(sp.cuts[1], 50);
  EXPECT_EQ(sp.cuts[2], 70);
  // Fewer cuts than nshards-1 is legal: top shards just own nothing.
  const auto sparse = RangeSplitter<long>::with_boundaries(0, 100, {50}, 4);
  EXPECT_EQ(sparse.shard_of(0, 4), 0u);
  EXPECT_EQ(sparse.shard_of(50, 4), 1u);
  EXPECT_EQ(sparse.shard_of(99, 4), 1u);
}

TEST(RangeSplitterCuts, EqualWidthModeUnchangedByEmptyCuts) {
  // Aggregate init without cuts must keep the historical equal-width
  // behavior (every existing call site constructs {lo, hi}).
  RangeSplitter<long> sp{0, 1000};
  EXPECT_TRUE(sp.cuts.empty());
  EXPECT_EQ(sp.shard_of(0, 4), 0u);
  EXPECT_EQ(sp.shard_of(250, 4), 1u);
  EXPECT_EQ(sp.shard_of(999, 4), 3u);
}

TEST(RangeSplitterCuts, ReshardAcceptsCutSplitter) {
  StatsMap map(RangeSplitter<long>{0, 1000});
  for (long k = 0; k < 1000; ++k) map.insert(k, k);
  map.reshard(RangeSplitter<long>::with_boundaries(0, 1000,
                                                   {100, 200, 300}, 4));
  // Nothing lost, and routing follows the cuts.
  EXPECT_EQ(map.size(), 1000u);
  const auto sizes = map.shard_sizes();
  EXPECT_EQ(sizes[0], 100u);
  EXPECT_EQ(sizes[1], 100u);
  EXPECT_EQ(sizes[2], 100u);
  EXPECT_EQ(sizes[3], 700u);
  const auto scan = map.range_scan(0, 999);
  ASSERT_EQ(scan.size(), 1000u);
  for (long k = 0; k < 1000; ++k) EXPECT_EQ(scan[k].first, k);
}

// A hot range concentrated on one shard triggers an adaptive reshard
// whose quantile cuts rebalance the sizes — sensed from the key sample,
// and reported back out through pnb_rebalance_*.
TEST(Rebalancer, HotRangeTriggersAndRebalances) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"hot\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"hot\"";
  cfg.skew_threshold = 1.5;
  cfg.cooldown_ticks = 3;
  cfg.sample_every = 1;
  cfg.min_samples = 256;
  Rebalancer<StatsMap> rb(map, cfg, reg);

  // Offered load entirely inside shard 0's equal-width quarter.
  Xoshiro256 rng(7);
  for (int i = 0; i < 4096; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 14)), 1);
  }
  const auto before = map.shard_sizes();
  EXPECT_GT(before[0], 0u);
  EXPECT_EQ(before[1] + before[2] + before[3], 0u);

  const auto r = rb.tick();
  EXPECT_TRUE(r.triggered) << r.note;
  EXPECT_GE(r.skew, 1.5);
  EXPECT_EQ(rb.triggers(), 1u);
  EXPECT_FALSE(map.splitter().cuts.empty());

  // The quantile cuts spread the formerly-hot range across all shards.
  const auto after = map.shard_sizes();
  const std::size_t total = after[0] + after[1] + after[2] + after[3];
  EXPECT_EQ(total, map.size());
  const std::size_t biggest = *std::max_element(after.begin(), after.end());
  EXPECT_LT(static_cast<double>(biggest),
            1.5 * static_cast<double>(total) / 4.0);

  // Decisions are on the wire: counters and gauges in the exposition.
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("pnb_rebalance_ticks_total{map=\"hot\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_rebalance_triggers_total{map=\"hot\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_rebalance_last_skew_ratio"), std::string::npos);
  EXPECT_NE(text.find("pnb_rebalance_key_samples"), std::string::npos);
}

TEST(Rebalancer, BalancedLoadNeverTriggers) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"flat\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"flat\"";
  cfg.skew_threshold = 1.5;
  cfg.sample_every = 1;
  Rebalancer<StatsMap> rb(map, cfg, reg);

  Xoshiro256 rng(11);
  for (int i = 0; i < 8192; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 16)), 1);
  }
  const auto r = rb.tick();
  EXPECT_FALSE(r.triggered);
  EXPECT_STREQ(r.note, "below-threshold");
  EXPECT_LT(r.skew, 1.5);
  EXPECT_EQ(rb.triggers(), 0u);
  EXPECT_TRUE(map.splitter().cuts.empty());
}

TEST(Rebalancer, MinSamplesGateHoldsFireWithoutEvidence) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"gate\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"gate\"";
  cfg.skew_threshold = 1.5;
  cfg.sample_every = 1;
  cfg.min_samples = 1u << 20;  // unreachable: the ring holds 8192
  Rebalancer<StatsMap> rb(map, cfg, reg);

  Xoshiro256 rng(13);
  for (int i = 0; i < 4096; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 14)), 1);
  }
  const auto r = rb.tick();
  EXPECT_FALSE(r.triggered);
  EXPECT_STREQ(r.note, "too-few-samples");
  EXPECT_GE(r.skew, 1.5);  // the skew WAS there; only evidence was missing
  EXPECT_TRUE(map.splitter().cuts.empty());
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find("pnb_rebalance_skipped_samples_total{map=\"gate\"} 1"),
      std::string::npos);
}

TEST(Rebalancer, CooldownSuppressesBackToBackTriggers) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"cool\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"cool\"";
  cfg.skew_threshold = 1.5;
  cfg.cooldown_ticks = 2;
  cfg.sample_every = 1;
  cfg.min_samples = 256;
  Rebalancer<StatsMap> rb(map, cfg, reg);

  // Hot range -> trigger #1.
  Xoshiro256 rng(17);
  for (int i = 0; i < 4096; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 14)), 1);
  }
  EXPECT_TRUE(rb.tick().triggered);

  // Flip the hot range so the next ticks stay over threshold; the
  // cooldown must still hold fire for cooldown_ticks passes. Each
  // reload commits 4096 FRESH keys (duplicate inserts never reach
  // Commit, so re-inserting the same range would show a zero delta).
  long next_hot = (1 << 14) * 3;
  const auto reload = [&] {
    for (int i = 0; i < 4096; ++i) {
      map.insert(next_hot++, 1);
    }
  };
  reload();
  auto r = rb.tick();
  EXPECT_FALSE(r.triggered);
  EXPECT_STREQ(r.note, "cooldown");
  reload();
  r = rb.tick();
  EXPECT_FALSE(r.triggered);
  EXPECT_STREQ(r.note, "cooldown");
  reload();
  r = rb.tick();
  EXPECT_TRUE(r.triggered) << r.note;
  EXPECT_EQ(rb.triggers(), 2u);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find("pnb_rebalance_skipped_cooldown_total{map=\"cool\"} 2"),
      std::string::npos);
}

// Static skew over a uniformly prefilled map: the first tick cuts the hot
// range apart, and from then on the sampled writes are balanced, so the
// controller settles even with no cooldown — although the prefilled keys
// above the hot range leave the SIZES skewed for good.
TEST(Rebalancer, SettlesUnderStaticSkew) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"settle\"");
  Xoshiro256 rng(31);
  for (int i = 0; i < 16384; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 16)), 0);
  }

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"settle\"";
  cfg.cooldown_ticks = 0;
  cfg.sample_every = 1;
  Rebalancer<StatsMap> rb(map, cfg, reg);
  for (int tick = 0; tick < 10; ++tick) {
    for (int i = 0; i < 4096; ++i) {
      const long k = static_cast<long>(rng.next_bounded(1 << 12));
      if (rng.next_bounded(2) == 0) {
        map.insert(k, tick);
      } else {
        map.erase(k);
      }
    }
    rb.tick();
  }
  EXPECT_EQ(rb.triggers(), 1u);
  EXPECT_LT(rb.last_skew(), cfg.skew_threshold);
  const auto sizes = map.shard_sizes();
  EXPECT_GT(*std::max_element(sizes.begin(), sizes.end()),
            2 * *std::min_element(sizes.begin(), sizes.end()));
}

// Every write hits one key: no range cut can spread it, so the gate
// declines the reshard instead of rebuilding the map for nothing.
TEST(Rebalancer, UnsplittableHotKeyIsSkippedNotResharded) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"one\"";
  cfg.sample_every = 1;
  Rebalancer<StatsMap> rb(map, cfg, reg);
  for (int i = 0; i < 4096; ++i) {
    if (i % 2 == 0) {
      map.insert(4321, i);
    } else {
      map.erase(4321);
    }
  }
  const auto r = rb.tick();
  EXPECT_FALSE(r.triggered);
  EXPECT_STREQ(r.note, "no-benefit");
  EXPECT_GE(r.skew, 4.0);
  EXPECT_EQ(rb.triggers(), 0u);
  EXPECT_TRUE(map.splitter().cuts.empty());
  EXPECT_NE(reg.prometheus_text().find(
                "pnb_rebalance_skipped_no_benefit_total{map=\"one\"} 1"),
            std::string::npos);
  // The skip starts the cooldown like a trigger would.
  EXPECT_STREQ(rb.tick().note, "cooldown");
}

// Triggering emits a kRebalanceTrigger mechanism-trace event carrying
// the observed skew in per-mille.
TEST(Rebalancer, TriggerIsVisibleInMechanismTrace) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"tr\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"tr\"";
  cfg.skew_threshold = 1.5;
  cfg.sample_every = 1;
  cfg.min_samples = 256;
  Rebalancer<StatsMap> rb(map, cfg, reg);
  Xoshiro256 rng(23);
  for (int i = 0; i < 4096; ++i) {
    map.insert(static_cast<long>(rng.next_bounded(1 << 14)), 1);
  }
  ASSERT_TRUE(rb.tick().triggered);
  trace.set_enabled(false);
  bool saw = false;
  for (const auto& e : trace.dump()) {
    if (e.kind == obs::TraceKind::kRebalanceTrigger) {
      saw = true;
      EXPECT_GE(e.arg, 1500u);  // skew >= 1.5 in per-mille
    }
  }
  EXPECT_TRUE(saw);
}

// The background thread converges without manual ticks: start() with a
// short interval, offer a hot range, and wait for the trigger.
TEST(Rebalancer, BackgroundLoopFires) {
  StatsMap map(RangeSplitter<long>{0, 1 << 16});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"bg\"");

  typename Rebalancer<StatsMap>::Config cfg;
  cfg.labels = "map=\"bg\"";
  cfg.interval = std::chrono::milliseconds(5);
  cfg.skew_threshold = 1.5;
  cfg.sample_every = 1;
  cfg.min_samples = 256;
  Rebalancer<StatsMap> rb(map, cfg, reg);
  rb.start();
  Xoshiro256 rng(29);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rb.triggers() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 512; ++i) {
      map.insert(static_cast<long>(rng.next_bounded(1 << 14)), 1);
    }
  }
  rb.stop();
  EXPECT_GE(rb.triggers(), 1u);
  EXPECT_FALSE(map.splitter().cuts.empty());
}

}  // namespace
}  // namespace pnbbst

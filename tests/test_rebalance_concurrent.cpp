// Adaptive sharding under real churn (stress label; CI sweeps this suite
// under ASan+UBSan and TSan).
//
// Two contracts drive these tests to failure if the PR-10 machinery races
// the PR-5 machinery badly:
//
//  * SKEW-FLIP CHURN — acked writer streams hammer hot windows that flip
//    across the keyspace while the rebalancer loop keeps firing adaptive
//    reshards at them. Every adaptive cutover is a full reshard(), so the
//    write-intent ledger contract must hold: each ack matches a per-key
//    single-writer model, and the final merged scan equals the merged
//    models exactly — zero lost, zero phantom acknowledged writes. The
//    loop must also actually fire (the skew is engineered), and once the
//    writers quiesce every retired generation must reclaim itself.
//
//  * SINGLE-SHARD CHUNKED SCANS — with the whole keyspace on one shard,
//    the composite snapshot's parallel count still splits [lo, hi] into
//    key chunks on the executor. Against the SAME snapshot handle
//    the chunked result must stay bit-identical to the sequential scan
//    while writers churn underneath — the snapshot contract does not
//    bend just because the scan fanned out.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/adapters.h"
#include "obs/registry.h"
#include "scan/executor.h"
#include "shard/rebalance.h"
#include "shard/sharded_map.h"
#include "util/random.h"

namespace pnbbst {
namespace {

using scan::ParallelScanOptions;
using scan::ScanExecutor;

using ChurnMap = ShardedPnbMap<long, long, 4, EpochReclaimer, CountingOpStats>;

TEST(RebalanceConcurrent, SkewFlipChurnLosesNoAcksWhileRebalancerFires) {
  constexpr unsigned kWriters = 3;
  constexpr long kStripe = 4000;
  constexpr long kKeys = kWriters * kStripe;
  constexpr int kOpsPerWriter = 20000;

  // Bounds 8x wider than the populated region: the initial equal-width
  // split parks every writer key on shard 0, so the very first ticks see
  // heavy op- AND size-skew and the loop must fire.
  ChurnMap map(RangeSplitter<long>{0, kKeys * 8});

  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"flip\"");

  typename Rebalancer<ChurnMap>::Config cfg;
  cfg.labels = "map=\"flip\"";
  cfg.skew_threshold = 1.5;
  cfg.cooldown_ticks = 1;
  cfg.sample_every = 2;
  cfg.min_samples = 256;
  Rebalancer<ChurnMap> rb(map, cfg, reg);

  std::atomic<unsigned> done{0};
  std::vector<std::map<long, long>> models(kWriters);
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kWriters; ++t) {
    writers.emplace_back([&map, &models, &done, t] {
      // Writer t owns [base, base + kStripe): per-key single writer, so
      // every ack is deterministic against the local model. The hot
      // window FLIPS between the halves of the stripe in four phases, so
      // the key distribution the rebalancer chases keeps moving.
      std::map<long, long>& model = models[t];
      Xoshiro256 rng(thread_seed(2610, t));
      const long base = static_cast<long>(t) * kStripe;
      constexpr int kPhase = kOpsPerWriter / 4;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const long half = ((i / kPhase) % 2 == 0) ? 0 : kStripe / 2;
        const long k =
            base + half + static_cast<long>(rng.next_bounded(kStripe / 2));
        const long v = static_cast<long>(i) * 8 + static_cast<long>(t);
        switch (rng.next_bounded(10)) {
          case 0:
          case 1:
          case 2:
          case 3: {  // insert-if-absent
            const bool expect = model.find(k) == model.end();
            ASSERT_EQ(map.insert(k, v), expect)
                << "insert ack diverged, key " << k << " op " << i;
            if (expect) model.emplace(k, v);
            break;
          }
          case 4:
          case 5: {  // erase
            const bool expect = model.erase(k) > 0;
            ASSERT_EQ(map.erase(k), expect)
                << "erase ack diverged, key " << k << " op " << i;
            break;
          }
          default: {  // assign (recorded as erase+insert in the ledger)
            const bool expect = model.find(k) != model.end();
            ASSERT_EQ(map.assign(k, v), expect)
                << "assign ack diverged, key " << k << " op " << i;
            model[k] = v;
            break;
          }
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  // Drive the control loop synchronously and as hard as possible: every
  // trigger is a full adaptive reshard racing the writers. The floor of
  // 12 ticks keeps the churn meaningful on a fast scheduler; post-writer
  // ticks must not corrupt anything either.
  int ticks = 0;
  while (done.load(std::memory_order_acquire) < kWriters || ticks < 12) {
    rb.tick();
    ++ticks;
  }
  for (auto& th : writers) th.join();

  // The engineered skew must actually have fired the loop, and the
  // decision trail must be on the registry like any other telemetry.
  EXPECT_GE(rb.triggers(), 1u);
  EXPECT_NE(reg.prometheus_text().find(
                "pnb_rebalance_triggers_total{map=\"flip\"}"),
            std::string::npos);

  // Zero lost and zero phantom acknowledged writes across every adaptive
  // cutover: final merged scan == union of the writers' models.
  std::map<long, long> expect;
  for (const auto& m : models) expect.insert(m.begin(), m.end());
  const auto scan = map.range_scan(0, kKeys * 8);
  ASSERT_EQ(scan.size(), expect.size());
  auto it = expect.begin();
  for (std::size_t i = 0; i < scan.size(); ++i, ++it) {
    ASSERT_EQ(scan[i].first, it->first) << "key set diverged at " << i;
    ASSERT_EQ(scan[i].second, it->second)
        << "value diverged at key " << it->first;
  }
  // Nothing pins the retired generations anymore.
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
}

TEST(RebalanceConcurrent, BackgroundLoopRacesWritersWithoutLosingAcks) {
  // Same ledger contract, but with the rebalancer on its own thread at a
  // tight cadence — the decision loop, the migration machinery, and the
  // writers all interleave freely instead of through the test driver.
  constexpr unsigned kWriters = 2;
  constexpr long kStripe = 3000;
  constexpr long kKeys = kWriters * kStripe;
  constexpr int kOpsPerWriter = 15000;

  ChurnMap map(RangeSplitter<long>{0, kKeys * 8});
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "map=\"bg\"");

  typename Rebalancer<ChurnMap>::Config cfg;
  cfg.labels = "map=\"bg\"";
  cfg.interval = std::chrono::milliseconds(1);
  cfg.skew_threshold = 1.5;
  cfg.cooldown_ticks = 1;
  cfg.sample_every = 2;
  cfg.min_samples = 256;
  Rebalancer<ChurnMap> rb(map, cfg, reg);
  rb.start();

  std::vector<std::map<long, long>> models(kWriters);
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kWriters; ++t) {
    writers.emplace_back([&map, &models, t] {
      std::map<long, long>& model = models[t];
      Xoshiro256 rng(thread_seed(2611, t));
      const long base = static_cast<long>(t) * kStripe;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const long k = base + static_cast<long>(rng.next_bounded(kStripe));
        const long v = static_cast<long>(i) * 4 + 1;
        if (rng.next_bounded(3) == 0) {
          const bool expect = model.erase(k) > 0;
          ASSERT_EQ(map.erase(k), expect) << "erase ack diverged at " << k;
        } else {
          const bool expect = model.find(k) == model.end();
          ASSERT_EQ(map.insert(k, v), expect)
              << "insert ack diverged at " << k;
          if (expect) model.emplace(k, v);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  rb.stop();

  std::map<long, long> expect;
  for (const auto& m : models) expect.insert(m.begin(), m.end());
  const auto scan = map.range_scan(0, kKeys * 8);
  ASSERT_EQ(scan.size(), expect.size());
  auto it = expect.begin();
  for (std::size_t i = 0; i < scan.size(); ++i, ++it) {
    ASSERT_EQ(scan[i], (std::pair<long, long>{it->first, it->second}));
  }
  EpochReclaimer::shared().quiescent_flush();
  EXPECT_EQ(map.retired_maps(), 0u);
}

TEST(RebalanceConcurrent, SingleShardChunkedCountStaysExactUnderChurn) {
  // NumShards == 1: every composite snapshot holds exactly one shard
  // snapshot, and parallel counts split it into key chunks. Exact
  // means EQ against the sequential scan of the SAME handle (its size,
  // and the contents a second scan returns), round after round, while
  // writers mutate the live map.
  using OneShard = ShardedPnbMap<long, long, 1>;
  constexpr long kSpace = 1 << 15;
  OneShard map(RangeSplitter<long>{0, kSpace});
  for (long k = 0; k < kSpace; k += 4) map.insert(k, k);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 2; ++t) {
    writers.emplace_back([&map, &stop, t] {
      Xoshiro256 rng(thread_seed(2612, t));
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(rng.next_bounded(kSpace));
        if (rng.next_bounded(2) == 0) {
          map.insert(k, k * 2);
        } else {
          map.erase(k);
        }
      }
    });
  }

  ScanExecutor ex(4);
  Xoshiro256 rng(99);
  for (int round = 0; round < 150; ++round) {
    long lo = static_cast<long>(rng.next_bounded(kSpace));
    long hi = static_cast<long>(rng.next_bounded(kSpace));
    if (lo > hi) std::swap(lo, hi);
    auto snap = map.snapshot();
    const auto seq = snap.range_scan(lo, hi);
    for (unsigned threads : {2u, 8u}) {
      ParallelScanOptions opts(threads, ex);
      ASSERT_EQ(snap.parallel_range_count(lo, hi, opts), seq.size())
          << "round " << round << " [" << lo << "," << hi << "] x"
          << threads;
    }
    ASSERT_EQ(snap.range_scan(lo, hi), seq) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : writers) th.join();

  // Quiescent tail: the live-map parallel surface agrees too.
  EXPECT_EQ(map.parallel_range_count(0, kSpace, ParallelScanOptions(4u, ex)),
            map.range_count(0, kSpace));
  EXPECT_EQ(map.lifetime().active_leases(), 0u);
}

}  // namespace
}  // namespace pnbbst

// Observability plane (src/obs/, DESIGN.md §14): striped-counter
// exactness under threads, registry find-or-create identity and RAII
// unregistration, Prometheus text shape, the RelaxedHistogram-vs-plain
// Histogram merge differential, latency-plane sampling accounting and
// exact sums, and the mechanism-trace ring (wrap + per-thread ordering +
// Chrome JSON).
//
// The LatencyPlane/MechanismTrace subjects are process globals shared
// with other tests in this binary, so those cases assert on DELTAS, never
// absolute values; registry-shape cases use private MetricsRegistry
// instances.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/adapters.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "core/pnb_bst.h"
#include "shard/sharded_map.h"
#include "util/histogram.h"
#include "util/random.h"

namespace pnbbst {
namespace {

TEST(StripedCounters, ThreadedExactness) {
  StripedCounters<2> c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPer = 100000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        c.add(0);
        c.add(1, 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(0), kThreads * kPer);
  EXPECT_EQ(c.value(1), 2 * kThreads * kPer);
}

TEST(StripedCounters, AddAccumulates) {
  StripedCounters<1> c;
  c.add(0, 40);
  c.add(0);
  c.add(0);
  EXPECT_EQ(c.value(0), 42u);
}

TEST(MetricsRegistry, CounterFindOrCreateIdentity) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("t_total", "help", "k=\"1\"");
  obs::Counter& b = reg.counter("t_total", "other help", "k=\"1\"");
  obs::Counter& c = reg.counter("t_total", "help", "k=\"2\"");
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same cells
  EXPECT_NE(&a, &c);  // distinct labels -> distinct cells
  a.add(3);
  c.inc();
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "t_total");
  EXPECT_EQ(samples[0].labels, "k=\"1\"");
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
  EXPECT_EQ(samples[1].labels, "k=\"2\"");
  EXPECT_DOUBLE_EQ(samples[1].value, 1.0);
}

TEST(MetricsRegistry, RegistrationRemovesCollectors) {
  obs::MetricsRegistry reg;
  {
    obs::Registration handle;
    reg.add_gauge(handle, "g", "a gauge", "", [] { return 7.0; });
    EXPECT_FALSE(handle.empty());
    const auto samples = reg.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  }  // handle destroyed -> collector removed
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricsRegistry, RegistrationMoveTransfersOwnership) {
  obs::MetricsRegistry reg;
  obs::Registration a;
  reg.add_gauge(a, "g", "a gauge", "", [] { return 1.0; });
  obs::Registration b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(reg.snapshot().size(), 1u);
  b.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(MetricsRegistry, PrometheusTextShape) {
  obs::MetricsRegistry reg;
  reg.counter("pnb_test_ops_total", "Ops processed", "kind=\"put\"")
      .add(42);
  obs::Registration handle;
  reg.add_gauge(handle, "pnb_test_depth", "Current depth", "",
                [] { return 2.5; });
  const std::string text = reg.prometheus_text();
  // One HELP/TYPE header per family, samples after their header, counter
  // values printed without an exponent.
  EXPECT_NE(text.find("# HELP pnb_test_ops_total Ops processed\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_test_ops_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_test_ops_total{kind=\"put\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pnb_test_depth 2.5\n"), std::string::npos);
  // Headers precede every sample of their family.
  EXPECT_LT(text.find("# TYPE pnb_test_ops_total"),
            text.find("pnb_test_ops_total{"));
}

TEST(MetricsRegistry, LargeIntegralValuesStayExact) {
  obs::MetricsRegistry reg;
  reg.counter("big_total", "big").add(1234567890123ull);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("big_total 1234567890123\n"), std::string::npos);
}

// Differential: merging a RelaxedHistogram into a plain Histogram must
// reproduce the plain histogram built from the same stream — identical
// bucket geometry means identical counts and quantiles, and the merge
// carries the exact sum and max.
TEST(RelaxedHistogram, MergeMatchesPlainHistogram) {
  RelaxedHistogram relaxed;
  Histogram plain;
  Xoshiro256 rng(7);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = rng.next() >> (i % 48);
    relaxed.record(v);
    plain.record(v);
  }
  Histogram merged;
  merged.merge(relaxed);
  EXPECT_EQ(merged.count(), plain.count());
  EXPECT_EQ(merged.sum(), plain.sum());
  EXPECT_EQ(merged.max(), plain.max());
  EXPECT_EQ(merged.p50(), plain.p50());
  EXPECT_EQ(merged.p90(), plain.p90());
  EXPECT_EQ(merged.p99(), plain.p99());
  EXPECT_EQ(merged.p999(), plain.p999());
  EXPECT_EQ(relaxed.count(), 50000u);
}

TEST(RelaxedHistogram, ConcurrentRecordersSumExactly) {
  RelaxedHistogram h;
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPer = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) h.record(t * 1000 + i);
    });
  }
  for (auto& th : threads) th.join();
  Histogram out;
  out.merge(h);
  EXPECT_EQ(out.count(), kThreads * kPer);
  std::uint64_t sum = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPer; ++i) sum += t * 1000 + i;
  }
  EXPECT_EQ(out.sum(), sum);
  EXPECT_EQ(out.max(), (kThreads - 1) * 1000 + kPer - 1);
}

TEST(LatencyPlane, SampleEveryNAccounting) {
  auto& plane = obs::LatencyPlane::global();
  plane.set_sample_every(1);  // sample every op on this thread
  const std::uint64_t before = plane.total_samples();
  const std::uint64_t scans_before =
      plane.merged(obs::OpClass::kScan).count();
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t t0 = plane.maybe_start();
    ASSERT_NE(t0, 0u);
    plane.finish(obs::OpClass::kScan, t0);
  }
  EXPECT_EQ(plane.total_samples() - before, 100u);
  EXPECT_EQ(plane.merged(obs::OpClass::kScan).count() - scans_before, 100u);
  plane.set_sample_every(0);
  EXPECT_EQ(plane.maybe_start(), 0u);  // disabled: never samples
  plane.finish(obs::OpClass::kScan, 0);  // and finish(0) is a no-op
  EXPECT_EQ(plane.total_samples() - before, 100u);
  plane.set_sample_every(obs::LatencyPlane::kDefaultSampleEvery);
}

TEST(MechanismTrace, RingWrapKeepsNewestInOrder) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  const std::size_t tids_before = trace.thread_count();
  constexpr std::uint64_t kEvents = 3000;  // ~3x the ring
  std::thread recorder([&trace] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      trace.record(obs::TraceKind::kReshardCutover, i);
    }
  });
  recorder.join();
  trace.set_enabled(false);
  const auto events = trace.dump();
  // Keep only the recorder thread's events (new tid >= prior count).
  std::vector<obs::MechanismTrace::Event> mine;
  for (const auto& e : events) {
    if (e.tid >= tids_before) mine.push_back(e);
  }
  ASSERT_EQ(mine.size(), obs::MechanismTrace::kRingSlots);
  // The survivors are exactly the newest kRingSlots events, seq-ordered.
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].arg, kEvents - obs::MechanismTrace::kRingSlots + i);
    EXPECT_EQ(mine[i].seq, kEvents - obs::MechanismTrace::kRingSlots + i);
    if (i > 0) {
      EXPECT_LT(mine[i - 1].seq, mine[i].seq);
      EXPECT_LE(mine[i - 1].ts_ns, mine[i].ts_ns);
    }
  }
}

TEST(MechanismTrace, DisabledRecordsNothing) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(false);
  const std::size_t n = trace.dump().size();
  obs::trace_event(obs::TraceKind::kHelp, 99);
  EXPECT_EQ(trace.dump().size(), n);
}

TEST(MechanismTrace, ChromeJsonShape) {
  auto& trace = obs::MechanismTrace::global();
  trace.set_enabled(true);
  obs::trace_event(obs::TraceKind::kAdmissionShed, 5);
  trace.set_enabled(false);
  const std::string json = trace.chrome_json();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"admission_shed\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// A CountingOpStats tree registered through register_op_stats exposes
// its own counters in the pnb_engine_* families under its labels.
TEST(Adapters, CountingTreeRegisteredThroughOpStats) {
  using Tree = PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  Tree tree;
  for (long k = 0; k < 200; ++k) tree.insert(k);
  for (long k = 0; k < 200; k += 2) tree.erase(k);
  for (long k = 0; k < 200; ++k) tree.contains(k);
  const OpStatsSnapshot s = tree.stats().snapshot();
  EXPECT_GE(s.attempts, 300u);
  EXPECT_EQ(s.commits, 300u);
  EXPECT_GE(s.nodes_allocated, 200u);
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_op_stats(reg, handle, tree.stats(), "tree=\"t\"");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("pnb_engine_commits_total{tree=\"t\"} 300\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_engine_helps_total counter\n"),
            std::string::npos);
}

// The sharded-map adapter fans out per-shard gauges and aggregates the
// engine family; exercised here against a private registry.
TEST(Adapters, ShardedMapCollectorEmitsFamilies) {
  using Map = ShardedPnbMap<long, long, 4, EpochReclaimer, CountingOpStats>;
  Map map(RangeSplitter<long>{0, 1024});
  for (long k = 0; k < 100; ++k) map.insert(k, k);
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "");
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("pnb_shard_size{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("pnb_shard_size{shard=\"3\"}"), std::string::npos);
  EXPECT_NE(text.find("pnb_shard_commits_total"), std::string::npos);
  EXPECT_NE(text.find("pnb_engine_commits_total"), std::string::npos);
  EXPECT_NE(text.find("pnb_lifecycle_current_generation"),
            std::string::npos);
  EXPECT_NE(text.find("pnb_admission_admitted_total"), std::string::npos);
  // The shard sizes must sum to the map size, and the imbalance gauge is
  // max/mean of the same walk: keys 0..99 under an equal-width split of
  // [0, 1024) all land on shard 0 -> 100 / (100/4) = 4.0.
  double total = 0.0;
  double imbalance = 0.0;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "pnb_shard_size") total += s.value;
    if (s.name == "pnb_shard_imbalance_ratio") imbalance = s.value;
  }
  EXPECT_DOUBLE_EQ(total, 100.0);
  EXPECT_DOUBLE_EQ(imbalance, 4.0);
  EXPECT_NE(text.find("# TYPE pnb_shard_imbalance_ratio gauge\n"),
            std::string::npos);
}

// pnb_engine_* are lifetime counters: a reshard bulk-builds fresh shard
// trees whose own counters restart at zero, and the aggregate must carry
// the retired shards' counts across the cutover instead of dropping.
TEST(Adapters, ShardedEngineTotalsSurviveReshard) {
  using Map = ShardedPnbMap<long, long, 4, EpochReclaimer, CountingOpStats>;
  Map map(RangeSplitter<long>{0, 1024});
  for (long k = 0; k < 500; ++k) map.insert(k, k);
  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_sharded_map(reg, handle, map, "");
  const auto commits = [&reg] {
    for (const auto& s : reg.snapshot()) {
      if (s.name == "pnb_engine_commits_total") return s.value;
    }
    return -1.0;
  };
  const double before = commits();
  EXPECT_EQ(before, 500.0);
  map.reshard(RangeSplitter<long>{0, 512});
  EXPECT_GE(commits(), before);
  map.insert(2000, 1);
  EXPECT_EQ(commits(), before + 1);
}

// Native le-bucketed histogram exposition next to the summary: declared
// as TYPE histogram, bucket counts cumulative and non-decreasing in
// NUMERIC le order, terminal +Inf bucket == _hist_count == the summary
// _count for the same class. (The exposition page itself orders samples
// lexicographically by label string — tools/obs_scrape.py re-sorts by
// numeric le before checking, and so does this test.)
TEST(Adapters, LatencyHistogramExpositionShape) {
  auto& plane = obs::LatencyPlane::global();
  plane.set_sample_every(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t0 = plane.maybe_start();
    ASSERT_NE(t0, 0u);
    plane.finish(obs::OpClass::kInsert, t0);
  }
  plane.set_sample_every(obs::LatencyPlane::kDefaultSampleEvery);

  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_latency(reg, handle, plane, "");

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE pnb_op_latency_ns_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pnb_op_latency_ns_count counter\n"),
            std::string::npos);

  double count = -1.0;
  double hist_count = -1.0;
  double inf = -1.0;
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  for (const auto& s : reg.snapshot()) {
    if (s.labels.find("op=\"insert\"") == std::string::npos) continue;
    if (s.name == "pnb_op_latency_ns_count") count = s.value;
    if (s.name == "pnb_op_latency_ns_hist_count") hist_count = s.value;
    if (s.name == "pnb_op_latency_ns_hist_bucket") {
      const auto pos = s.labels.find("le=\"");
      ASSERT_NE(pos, std::string::npos) << s.labels;
      const auto end = s.labels.find('"', pos + 4);
      const std::string le = s.labels.substr(pos + 4, end - pos - 4);
      if (le == "+Inf") {
        inf = s.value;
      } else {
        buckets.emplace_back(std::stod(le), s.value);
      }
    }
  }
  // The global plane is shared across this binary, so counts are >= what
  // this test recorded; the three totals must still agree exactly.
  ASSERT_GE(count, 200.0);
  EXPECT_DOUBLE_EQ(hist_count, count);
  EXPECT_DOUBLE_EQ(inf, count);
  ASSERT_EQ(buckets.size(), obs::kLatencyBucketCount);
  std::sort(buckets.begin(), buckets.end());
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i].second, buckets[i - 1].second)
        << "bucket le=" << buckets[i].first << " not cumulative";
  }
  EXPECT_LE(buckets.back().second, inf);
}

// The exported _sum is the merged histogram's exact sum of recorded
// values (not a bucket-midpoint reconstruction), on both the summary and
// the le-bucketed families.
TEST(Adapters, LatencySumIsExact) {
  auto& plane = obs::LatencyPlane::global();
  plane.set_sample_every(1);
  for (int i = 0; i < 100; ++i) {
    plane.finish(obs::OpClass::kErase, plane.maybe_start());
  }
  plane.set_sample_every(obs::LatencyPlane::kDefaultSampleEvery);
  const Histogram h = plane.merged(obs::OpClass::kErase);
  ASSERT_GE(h.count(), 100u);

  obs::MetricsRegistry reg;
  obs::Registration handle;
  obs::register_latency(reg, handle, plane, "");
  double sum = -1.0;
  double hist_sum = -1.0;
  for (const auto& s : reg.snapshot()) {
    if (s.labels != "op=\"erase\"") continue;
    if (s.name == "pnb_op_latency_ns_sum") sum = s.value;
    if (s.name == "pnb_op_latency_ns_hist_sum") hist_sum = s.value;
  }
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(h.sum()));
  EXPECT_DOUBLE_EQ(hist_sum, sum);
}

}  // namespace
}  // namespace pnbbst

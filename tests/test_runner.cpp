#include "benchsupport/runner.h"

#include <gtest/gtest.h>

#include <atomic>

#include "benchsupport/reporter.h"
#include "util/timer.h"

namespace pnbbst {
namespace {

TEST(Runner, CountsAggregateAcrossThreads) {
  const auto result = run_timed(
      4, 0.05,
      [](unsigned, const std::atomic<bool>& stop, ThreadCounters& c) {
        while (!stop.load(std::memory_order_acquire)) {
          ++c.ops;
          ++c.inserts;
        }
      });
  EXPECT_EQ(result.threads, 4u);
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_EQ(result.total_ops, result.inserts);
  EXPECT_GT(result.elapsed_s, 0.04);
  EXPECT_GT(result.mops(), 0.0);
}

TEST(Runner, StopFlagTerminatesPromptly) {
  Timer t;
  run_timed(2, 0.05,
            [](unsigned, const std::atomic<bool>& stop, ThreadCounters& c) {
              while (!stop.load(std::memory_order_acquire)) ++c.ops;
            });
  // Window 50ms; allow generous slack for CI but catch runaway workers.
  EXPECT_LT(t.elapsed_s(), 5.0);
}

TEST(Runner, PerThreadIdsDistinct) {
  std::atomic<std::uint32_t> seen{0};
  run_timed(4, 0.02,
            [&](unsigned tid, const std::atomic<bool>& stop, ThreadCounters&) {
              seen.fetch_or(1u << tid);
              while (!stop.load(std::memory_order_acquire)) {
              }
            });
  EXPECT_EQ(seen.load(), 0b1111u);
}

TEST(Runner, HistogramsMerge) {
  const auto result = run_timed(
      3, 0.03,
      [](unsigned tid, const std::atomic<bool>& stop, ThreadCounters& c) {
        c.scan_latency_ns.record(1000 * (tid + 1));
        while (!stop.load(std::memory_order_acquire)) {
        }
      });
  EXPECT_EQ(result.scan_latency_ns.count(), 3u);
}

TEST(Runner, DerivedRates) {
  RunResult r;
  r.elapsed_s = 2.0;
  r.total_ops = 4'000'000;
  r.inserts = 1'000'000;
  r.erases = 1'000'000;
  r.scans = 10;
  EXPECT_DOUBLE_EQ(r.mops(), 2.0);
  EXPECT_DOUBLE_EQ(r.update_mops(), 1.0);
  EXPECT_DOUBLE_EQ(r.scans_per_s(), 5.0);
}

TEST(Runner, ZeroElapsedGuards) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.mops(), 0.0);
  EXPECT_DOUBLE_EQ(r.update_mops(), 0.0);
  EXPECT_DOUBLE_EQ(r.scans_per_s(), 0.0);
}

TEST(Reporter, EmitsWithoutCrashing) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  Reporter rep(cli, "TEST", "reporter smoke");
  rep.preamble("p=1");
  Table t({"a"});
  t.add_row({"1"});
  rep.emit(t);  // writes to stdout; just exercise the path
}

}  // namespace
}  // namespace pnbbst

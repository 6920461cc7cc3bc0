#include "workload/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "core/pnb_bst.h"

namespace pnbbst {
namespace {

TEST(WorkloadMix, Presets) {
  const auto u = WorkloadMix::updates_only();
  EXPECT_DOUBLE_EQ(u.insert + u.erase, 1.0);
  const auto r = WorkloadMix::read_mostly();
  EXPECT_DOUBLE_EQ(r.find, 0.9);
  const auto s = WorkloadMix::with_scans(0.1, 64);
  EXPECT_DOUBLE_EQ(s.scan, 0.1);
  EXPECT_DOUBLE_EQ(s.insert, 0.45);
  EXPECT_EQ(s.scan_width, 64);
}

TEST(WorkloadMix, DescribeMentionsComponents) {
  const auto s = WorkloadMix::with_scans(0.1, 64).describe();
  EXPECT_NE(s.find("i45"), std::string::npos);
  EXPECT_NE(s.find("s10"), std::string::npos);
}

TEST(OpStream, Deterministic) {
  const auto mix = WorkloadMix::balanced();
  OpStream a(mix, 1000, 42, 0), b(mix, 1000, 42, 0);
  for (int i = 0; i < 1000; ++i) {
    const Op x = a.next(), y = b.next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.key, y.key);
  }
}

TEST(OpStream, StreamSeedIsThePerThreadSeed) {
  // stream_seed is the documented reproducibility contract: pure in
  // (base, tid), distinct across tids, and compile-time evaluable.
  static_assert(OpStream::stream_seed(42, 0) == OpStream::stream_seed(42, 0));
  static_assert(OpStream::stream_seed(42, 0) != OpStream::stream_seed(42, 1));
  static_assert(OpStream::stream_seed(42, 0) != OpStream::stream_seed(43, 0));
  EXPECT_EQ(OpStream::stream_seed(7, 3), thread_seed(7, 3));
}

TEST(OpStream, IdenticallySeededRunsProduceIdenticalStreams) {
  // Two full multi-threaded "runs": each spawns one OS thread per
  // stream id and records that stream's ops. The recorded sequences
  // must match run-to-run exactly — determinism may not depend on
  // which OS thread executes the stream or how runs are scheduled.
  const auto mix = WorkloadMix::with_scans(0.1, 32);
  constexpr unsigned kThreads = 4;
  constexpr int kOps = 2000;
  auto run = [&] {
    std::vector<std::vector<Op>> per_thread(kThreads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        OpStream s(mix, 1 << 16, 42, t, 0.6);
        per_thread[t].reserve(kOps);
        for (int i = 0; i < kOps; ++i) per_thread[t].push_back(s.next());
      });
    }
    for (auto& w : workers) w.join();
    return per_thread;
  };
  const auto a = run();
  const auto b = run();
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      ASSERT_EQ(a[t][i].kind, b[t][i].kind) << "t=" << t << " i=" << i;
      ASSERT_EQ(a[t][i].key, b[t][i].key) << "t=" << t << " i=" << i;
      ASSERT_EQ(a[t][i].key2, b[t][i].key2) << "t=" << t << " i=" << i;
    }
  }
}

TEST(OpStream, DifferentThreadsDiffer) {
  const auto mix = WorkloadMix::balanced();
  OpStream a(mix, 1000, 42, 0), b(mix, 1000, 42, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next().key == b.next().key;
  EXPECT_LT(same, 20);
}

TEST(OpStream, MixProportionsRespected) {
  const auto mix = WorkloadMix::with_scans(0.1, 32);
  OpStream s(mix, 10000, 7, 0);
  std::map<OpKind, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[s.next().kind];
  EXPECT_NEAR(counts[OpKind::kInsert], n * 0.45, n * 0.02);
  EXPECT_NEAR(counts[OpKind::kErase], n * 0.45, n * 0.02);
  EXPECT_NEAR(counts[OpKind::kRangeScan], n * 0.10, n * 0.02);
  EXPECT_EQ(counts[OpKind::kFind], 0);
}

TEST(OpStream, KeysInRange) {
  OpStream s(WorkloadMix::balanced(), 128, 9, 3);
  for (int i = 0; i < 10000; ++i) {
    const Op op = s.next();
    ASSERT_GE(op.key, 0);
    ASSERT_LT(op.key, 128);
  }
}

TEST(OpStream, ScanBoundsAreSane) {
  OpStream s(WorkloadMix::with_scans(1.0, 50), 1000, 10, 0);
  for (int i = 0; i < 1000; ++i) {
    const Op op = s.next();
    ASSERT_EQ(op.kind, OpKind::kRangeScan);
    ASSERT_GE(op.key, 0);
    ASSERT_EQ(op.key2, op.key + 49);
    ASSERT_LT(op.key2, 1000 + 50);
  }
}

TEST(OpStream, ZipfKeysSkewed) {
  OpStream s(WorkloadMix::updates_only(), 10000, 11, 0, /*zipf_theta=*/0.99);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) low += s.next().key < 100;
  EXPECT_GT(low, n / 4);  // uniform would give ~1%
}

TEST(Prefill, ReachesTargetDensity) {
  PnbBst<long> t;
  const auto inserted = prefill(t, 1000, 0.5, 123);
  EXPECT_EQ(inserted, 500u);
  EXPECT_EQ(t.size(), 500u);
}

TEST(Prefill, DeterministicContents) {
  PnbBst<long> a, b;
  prefill(a, 500, 0.4, 9);
  prefill(b, 500, 0.4, 9);
  EXPECT_EQ(a.range_scan(0, 500), b.range_scan(0, 500));
}

}  // namespace
}  // namespace pnbbst

// Fig.ES — Sharded front-end throughput: mixed update/find/scan workload on
// ShardedPnbMap, sweeping shard count × thread count at a fixed key range.
//
// Claim exercised: the helping protocol is disjoint-access parallel, so
// range-partitioned shards scale updates near-linearly while merged scans
// (one wait-free snapshot per overlapped shard, concatenated) stay cheap —
// narrow scans under RangeSplitter touch a single shard. shards=1
// degenerates to a plain PnbMap and is the baseline column.
//
// The wscan/pwscan columns measure one keyspace-wide merged range_count
// after the mixed run, sequentially (shard snapshots walked one by one) and
// through the src/scan/ engine (one executor task per shard snapshot,
// counts summed) — the parallel-query path of the sharded
// front-end. Both report the median rep (robust to scheduler preemption,
// which the baseline diff would otherwise read as regression).
#include <cstdio>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "scan/executor.h"
#include "scan/parallel_scan.h"
#include "shard/sharded_map.h"
#include "util/histogram.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

// Deterministic prefill to steady-state density (mirrors workload/prefill,
// which takes a set; the sharded map is a key/value store).
template <class Map>
std::size_t prefill_map(Map& map, std::int64_t key_range, double density,
                        std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0xC0FFEE));
  std::size_t inserted = 0;
  const auto target =
      static_cast<std::size_t>(density * static_cast<double>(key_range));
  while (inserted < target) {
    const auto k = static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(key_range)));
    if (map.insert(k, k)) ++inserted;
  }
  return inserted;
}

template <std::size_t NumShards>
void run_series(Table& table, const BenchConfig& base, const WorkloadMix& mix,
                const std::vector<std::int64_t>& threads, int wide_reps) {
  scan::ScanExecutor executor(NumShards);
  for (auto th : threads) {
    BenchConfig cfg = base;
    cfg.threads = static_cast<unsigned>(th);
    ShardedPnbMap<long, long, NumShards> map(
        RangeSplitter<long>{0, cfg.key_range});
    prefill_map(map, cfg.key_range, cfg.prefill_density, cfg.seed);
    const RunResult r = run_timed(
        cfg.threads, cfg.seconds,
        [&map, &mix, &cfg](unsigned tid, const std::atomic<bool>& stop,
                           ThreadCounters& c) {
          OpStream stream(mix, cfg.key_range, cfg.seed, tid, cfg.zipf_theta);
          while (!stop.load(std::memory_order_acquire)) {
            const Op op = stream.next();
            switch (op.kind) {
              case OpKind::kInsert:
                ++c.inserts;
                c.update_successes += map.insert(op.key, op.key);
                break;
              case OpKind::kErase:
                ++c.erases;
                c.update_successes += map.erase(op.key);
                break;
              case OpKind::kFind:
                ++c.finds;
                map.contains(op.key);
                break;
              case OpKind::kRangeScan: {
                ++c.scans;
                const auto t0 = now_ns();
                c.scanned_keys += map.range_count(op.key, op.key2);
                c.scan_latency_ns.record(now_ns() - t0);
                break;
              }
            }
            ++c.ops;
          }
        });
    // Post-run quiescent wide queries: sequential merged vs parallel merged
    // (one executor task per shard snapshot, counts summed).
    Histogram hseq, hpar;
    const scan::ParallelScanOptions wopts(static_cast<unsigned>(NumShards),
                                          executor);
    for (int i = 0; i < wide_reps; ++i) {
      auto t0 = now_ns();
      map.range_count(0, cfg.key_range - 1);
      hseq.record(now_ns() - t0);
      t0 = now_ns();
      map.parallel_range_count(0, cfg.key_range - 1, wopts);
      hpar.record(now_ns() - t0);
    }
    table.add_row(
        {Table::num(std::int64_t{NumShards}), Table::num(std::int64_t{th}),
         Table::num(r.mops(), 3), Table::num(r.scans_per_s(), 0),
         Table::num(r.scan_latency_ns.mean() / 1000.0, 1),
         Table::num(static_cast<double>(r.update_successes) /
                        static_cast<double>(r.inserts + r.erases) * 100.0,
                    1),
         Table::num(static_cast<double>(hseq.p50()) / 1000.0, 1),
         Table::num(static_cast<double>(hpar.p50()) / 1000.0, 1)});
  }
}

bool want(const std::vector<std::int64_t>& shards, std::int64_t n) {
  for (auto s : shards) {
    if (s == n) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto threads = sweep_list(cli, "threads", smoke, {1, 2}, {1, 2, 4, 8});
  // Shard counts are compile-time template arguments; --shards filters the
  // built-in {1, 2, 4, 8, 16} inventory.
  const auto shards =
      sweep_list(cli, "shards", smoke, {1, 4}, {1, 2, 4, 8, 16});
  const double scan_frac = cli.get_double("scanfrac", 0.1);
  const auto scan_width =
      static_cast<std::int64_t>(cli.get_int("scanwidth", 100));
  const int wide_reps = static_cast<int>(cli.get_int("wreps", smoke ? 3 : 15));
  Reporter rep(cli, "Fig.ES",
               "sharded map throughput vs shards and threads (mixed + scans)");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  const WorkloadMix mix = WorkloadMix::with_scans(scan_frac, scan_width);
  char extra[64];
  std::snprintf(extra, sizeof(extra), "mix=%s", mix.describe().c_str());
  rep.preamble(params_string(base, extra));

  // Shard counts not in the compiled inventory must fail loudly, like
  // unknown flags do — a scripted sweep should never silently record
  // nothing.
  for (auto s : shards) {
    if (s != 1 && s != 2 && s != 4 && s != 8 && s != 16) {
      std::fprintf(stderr,
                   "--shards=%lld is not in the compiled inventory "
                   "{1,2,4,8,16}\n",
                   static_cast<long long>(s));
      return 2;
    }
  }

  Table table({"shards", "threads", "Mops/s", "scans/s", "scan_mean_us",
               "succ_%", "wscan_p50_us", "pwscan_p50_us"});
  if (want(shards, 1)) run_series<1>(table, base, mix, threads, wide_reps);
  if (want(shards, 2)) run_series<2>(table, base, mix, threads, wide_reps);
  if (want(shards, 4)) run_series<4>(table, base, mix, threads, wide_reps);
  if (want(shards, 8)) run_series<8>(table, base, mix, threads, wide_reps);
  if (want(shards, 16)) run_series<16>(table, base, mix, threads, wide_reps);
  rep.emit(table);
  return 0;
}

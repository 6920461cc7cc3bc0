// Fig.E7 — Scan scaling, two sweeps in one table:
//
//  (a) scan_threads == 1 rows: latency of a single sequential RangeScan as
//      a function of result width and tree size (the paper's O(|range| +
//      depth) ScanHelper claim — latency linear in width, logarithmic in
//      size), on randomly-inserted trees at 50% density.
//  (b) scan_threads > 1 rows (plus their 1-thread baseline): throughput of
//      ONE whole-tree snapshot scan partitioned into key-range chunks and
//      executed by the src/scan/ worker pool, on bulk-loaded (balanced)
//      trees of up to multi-million keys. speedup_x is relative to the
//      smallest swept thread count of the same tree size (1 in the
//      default sweep; the sweep is sorted ascending so that row always
//      runs first). Every chunk scans the same
//      phase, so the parallel rows measure the same linearizable operation
//      as the sequential ones.
//
// Latency cells report the MEDIAN (p50) rep: on shared machines the mean
// of microsecond-scale scans is dominated by scheduler preemptions, which
// would drown the signal the baseline diff (tools/bench_diff.py) guards.
//
// NOTE on environments: speedup_x can only exceed ~1.0 when the machine
// actually has multiple cores available to the process; a core-pinned
// container reports the engine overhead instead (see docs/BENCHMARKS.md).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "scan/executor.h"
#include "scan/parallel_scan.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace pnbbst;
  using namespace pnbbst::bench;
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  Reporter rep(cli, "Fig.E7",
               "scan latency vs width/size; parallel scan thread scaling");
  const int reps = static_cast<int>(cli.get_int("reps", smoke ? 5 : 200));
  const int preps = static_cast<int>(cli.get_int("preps", smoke ? 3 : 15));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  auto scan_threads =
      sweep_list(cli, "scanthreads", smoke, {1, 2, 4, 8}, {1, 2, 4, 8});
  // Ascending order makes the first row the speedup baseline (see header).
  std::sort(scan_threads.begin(), scan_threads.end());
  const auto par_sizes = sweep_list(cli, "parsizes", smoke, {32768L},
                                    {1000000L, 4194304L});
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[64];
  std::snprintf(extra, sizeof(extra), "reps=%d preps=%d", reps, preps);
  rep.preamble(stamped(extra));

  Table table({"tree_size", "scan_width", "scan_threads", "p50_us", "p99_us",
               "mkeys_per_s", "speedup_x"});

  // --- (a) sequential latency vs width and tree size ------------------------
  const std::vector<long> tree_sizes =
      smoke ? std::vector<long>{1000L, 10000L}
            : std::vector<long>{1000L, 10000L, 100000L, 1000000L};
  for (long tree_size : tree_sizes) {
    PnbBst<long> tree;
    // Dense prefill of exactly tree_size keys out of 2*tree_size range.
    prefill(tree, 2 * tree_size, 0.5, seed);
    for (long width : {100L, 1000L, 10000L}) {
      if (width > tree_size) continue;
      Histogram h;
      Xoshiro256 rng(seed);
      for (int i = 0; i < reps; ++i) {
        const long lo = static_cast<long>(
            rng.next_bounded(
                static_cast<std::uint64_t>(2 * tree_size - 2 * width)));
        const auto t0 = now_ns();
        tree.range_count(lo, lo + 2 * width - 1);  // ~width keys at 50% density
        h.record(now_ns() - t0);
      }
      const double p50_us = static_cast<double>(h.p50()) / 1000.0;
      table.add_row({Table::num(std::int64_t{tree_size}),
                     Table::num(std::int64_t{width}),
                     Table::num(std::int64_t{1}),
                     Table::num(p50_us, 1), Table::num(h.p99() / 1000),
                     Table::num(static_cast<double>(width) / p50_us, 2),
                     Table::num(1.0, 2)});
    }
  }

  // --- (b) one whole-tree scan across scan_threads chunk workers ------------
  const long max_threads =
      *std::max_element(scan_threads.begin(), scan_threads.end());
  scan::ScanExecutor executor(static_cast<unsigned>(max_threads));
  for (long n : par_sizes) {
    // Bulk-loaded balanced tree over the even keys of [0, 2n): exact 50%
    // density, phase-0 nodes, reproducible shape independent of seed.
    std::vector<long> keys(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) keys[static_cast<std::size_t>(i)] = 2 * i;
    PnbBst<long> tree(keys.begin(), keys.end());
    keys.clear();
    keys.shrink_to_fit();

    double base_us = 0.0;
    for (long th : scan_threads) {
      const scan::ParallelScanOptions opts(static_cast<unsigned>(th), executor);
      Histogram h;
      for (int i = 0; i < preps; ++i) {
        const auto t0 = now_ns();
        const std::size_t count =
            tree.parallel_range_count(0L, 2 * n - 1, opts);
        h.record(now_ns() - t0);
        if (count != static_cast<std::size_t>(n)) {
          std::fprintf(stderr,
                       "parallel scan dropped keys: got %zu want %ld\n",
                       count, n);
          return 1;
        }
      }
      const double p50_us = static_cast<double>(h.p50()) / 1000.0;
      if (th == scan_threads.front()) base_us = p50_us;
      table.add_row({Table::num(std::int64_t{n}), Table::num(std::int64_t{n}),
                     Table::num(std::int64_t{th}), Table::num(p50_us, 1),
                     Table::num(h.p99() / 1000),
                     Table::num(static_cast<double>(n) / p50_us, 2),
                     Table::num(base_us / p50_us, 2)});
    }
  }
  rep.emit(table);
  return 0;
}

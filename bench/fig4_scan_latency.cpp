// Fig.E4 — Scan latency distribution under update pressure: dedicated
// scanner threads measure full percentile profiles while 0..N updater
// threads hammer the tree.
//
// Paper claim exercised: RangeScan is wait-free (Theorem 47) — its latency
// is bounded by the size of the version it traverses, independent of update
// pressure. The locked baseline's scan latency degrades with writers (lock
// queueing); PNB-BST's p99 stays flat.
#include <cstdio>
#include <thread>
#include <type_traits>

#include "bench_common.h"
#include "baseline/cow_bst.h"
#include "baseline/locked_bst.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

// Each series point builds a fresh tree; a "box" bundles the tree with
// whatever must outlive it. Heap trees need nothing extra; arena trees
// carry their own domain + reclaimer, declared in teardown-safe order
// (domain before reclaimer — DESIGN.md §11).
template <class Tree>
struct HeapBox {
  Tree tree;
};

struct ArenaPnbBox {
  mem::ArenaDomain dom;
  EpochReclaimer rec;
  PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats,
         mem::ArenaAlloc>
      tree{rec, mem::ArenaAlloc(dom)};
};

template <class Box>
void run_series(Table& table, const BenchConfig& base,
                const std::vector<std::int64_t>& updater_counts,
                long scan_width) {
  for (auto updaters : updater_counts) {
    BenchConfig cfg = base;
    cfg.threads = static_cast<unsigned>(updaters) + 1;  // +1 scanner
    Box box;
    auto& tree = box.tree;
    using Tree = std::remove_reference_t<decltype(box.tree)>;
    prefill(tree, cfg.key_range, 0.5, cfg.seed);

    const RunResult r = run_timed(
        cfg.threads, cfg.seconds,
        [&](unsigned tid, const std::atomic<bool>& stop, ThreadCounters& c) {
          if (tid == 0) {  // scanner thread
            OpStream stream(WorkloadMix::with_scans(1.0, scan_width),
                            cfg.key_range, cfg.seed, tid);
            while (!stop.load(std::memory_order_acquire)) {
              const Op op = stream.next();
              const auto t0 = now_ns();
              c.scanned_keys += tree.range_count(op.key, op.key2);
              c.scan_latency_ns.record(now_ns() - t0);
              ++c.scans;
              ++c.ops;
            }
          } else {  // updater threads
            OpStream stream(WorkloadMix::updates_only(), cfg.key_range,
                            cfg.seed, tid);
            while (!stop.load(std::memory_order_acquire)) {
              const Op op = stream.next();
              if (op.kind == OpKind::kInsert) {
                tree.insert(op.key);
              } else {
                tree.erase(op.key);
              }
              ++c.ops;
            }
          }
        });
    const auto& h = r.scan_latency_ns;
    table.add_row({Tree::kName, Table::num(updaters),
                   Table::num(r.scans), Table::num(h.mean() / 1000.0, 1),
                   Table::num(h.p50() / 1000), Table::num(h.p99() / 1000),
                   Table::num(h.p999() / 1000), Table::num(h.max() / 1000)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  const auto updaters =
      sweep_list(cli, "updaters", smoke, {0, 1}, {0, 1, 3, 7});
  const long width = cli.get_int("width", smoke ? 128 : 1024);
  Reporter rep(cli, "Fig.E4", "scan latency percentiles vs update pressure");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[48];
  std::snprintf(extra, sizeof(extra), "scan_width=%ld", width);
  rep.preamble(params_string(base, extra));

  Table table({"structure", "updaters", "scans", "mean_us", "p50_us",
               "p99_us", "p99.9_us", "max_us"});
  run_series<HeapBox<PnbBst<long>>>(table, base, updaters, width);
  run_series<ArenaPnbBox>(table, base, updaters, width);
  run_series<HeapBox<LockedBst<long>>>(table, base, updaters, width);
  run_series<HeapBox<CowBst<long>>>(table, base, updaters, width);
  rep.emit(table);
  return 0;
}

// Micro.OPS — single-operation latency microbenchmarks: insert/erase
// pair, contains, and range_count at two widths on a prefilled tree,
// single-threaded, for every baseline structure — plus an arena-vs-heap
// allocator ablation on the two lock-free trees (the `alloc` column is
// the mem policy's kName, the structure cell carries the -arena suffix).
//
// This binary used to sit on google-benchmark, which the offline image
// does not ship, so it silently never built and its code paths rotted
// outside CI. It now uses the repo's Cli/Table/Reporter stack: same
// --smoke --json document as every other bench, registered under the
// bench-smoke CTest label, and swept by tools/bench_diff.py --sweep.
//
// The `obs` column is the observability ablation (DESIGN.md §14), run on
// both lock-free trees at 1, 2 and 4 threads sharing one tree: `off` rows
// run the default NullOpStats policy (the zero-cost contract — nothing is
// instrumented), `on` rows run CountingOpStats, where every mechanism
// counter bump is one relaxed increment on the bumping thread's own
// cacheline stripe. The on/off delta per thread count is the whole
// counter overhead, including any cross-core traffic it causes.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "baseline/cow_bst.h"
#include "baseline/locked_bst.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "nbbst/nb_bst.h"
#include "util/spin_barrier.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

// Result sink: op results accumulate locally and land here once per
// structure, so the calls cannot be optimized away.
std::atomic<std::uint64_t> g_sink{0};

struct MicroCfg {
  long key_range = 1 << 16;
  std::uint64_t ops = 200000;
  std::uint64_t seed = 42;
  std::vector<long> widths;
};

// Mean wall-clock ns per iteration of `body` over cfg-many iterations.
// Includes the RNG draw, identically across all rows.
template <class F>
double ns_per_op(std::uint64_t ops, std::uint64_t seed, F&& body) {
  Xoshiro256 rng(seed);
  const auto t0 = now_ns();
  for (std::uint64_t i = 0; i < ops; ++i) body(rng);
  const auto t1 = now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(ops);
}

template <class Tree>
void run_rows(Table& table, Tree& tree, const char* alloc_name,
              const MicroCfg& m) {
  prefill(tree, m.key_range, 0.5, m.seed);
  const auto range = static_cast<std::uint64_t>(m.key_range);
  const char* name = Tree::kName;
  std::uint64_t sink = 0;

  // Paired insert/erase on a uniform key keeps density steady; the mean
  // is halved so the cell reads as ns per single update.
  const double upd =
      ns_per_op(m.ops, m.seed + 1,
                [&](Xoshiro256& rng) {
                  const long k =
                      static_cast<long>(rng.next_bounded(range));
                  sink += tree.insert(k);
                  sink += tree.erase(k);
                }) /
      2.0;
  table.add_row({name, alloc_name, "off", "1", "insert+erase",
                 Table::num(upd, 1)});

  const double fnd = ns_per_op(m.ops, m.seed + 2, [&](Xoshiro256& rng) {
    const long k = static_cast<long>(rng.next_bounded(range));
    sink += tree.contains(k);
  });
  table.add_row({name, alloc_name, "off", "1", "contains",
                 Table::num(fnd, 1)});

  for (const long width : m.widths) {
    if (width >= m.key_range) continue;
    const auto lo_span = static_cast<std::uint64_t>(m.key_range - width);
    const double scn =
        ns_per_op(m.ops / 8 + 1, m.seed + 3, [&](Xoshiro256& rng) {
          const long lo = static_cast<long>(rng.next_bounded(lo_span));
          sink += tree.range_count(lo, lo + width - 1);
        });
    char op[48];
    std::snprintf(op, sizeof(op), "range_count(%ld)", width);
    table.add_row({name, alloc_name, "off", "1", op, Table::num(scn, 1)});
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

// One obs-ablation row: `threads` threads run the paired insert/erase
// loop on one shared prefilled heap tree; the cell is the mean
// per-thread ns per update.
template <class Tree>
void run_obs_row(Table& table, const char* obs_name, unsigned threads,
                 const MicroCfg& m) {
  Tree tree;
  prefill(tree, m.key_range, 0.5, m.seed);
  const auto range = static_cast<std::uint64_t>(m.key_range);
  std::vector<double> ns(threads);
  SpinBarrier start(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t sink = 0;
      start.arrive_and_wait();
      ns[t] = ns_per_op(m.ops, m.seed + 10 + t,
                        [&](Xoshiro256& rng) {
                          const long k =
                              static_cast<long>(rng.next_bounded(range));
                          sink += tree.insert(k);
                          sink += tree.erase(k);
                        }) /
              2.0;
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  double mean = 0.0;
  for (const double v : ns) mean += v / static_cast<double>(threads);
  table.add_row({Tree::kName, mem::HeapAlloc::kName, obs_name,
                 std::to_string(threads), "insert+erase",
                 Table::num(mean, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  const BenchConfig base = config_from_cli(cli);
  MicroCfg m;
  m.key_range = base.key_range;
  m.seed = base.seed;
  m.ops = static_cast<std::uint64_t>(
      cli.get_int("ops", smoke ? 20000 : 200000));
  m.widths = smoke ? std::vector<long>{16, 128}
                   : std::vector<long>{128, 1024};
  Reporter rep(cli, "Micro.OPS",
               "single-op latency + arena/heap and obs ablations");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[32];
  std::snprintf(extra, sizeof(extra), "ops=%llu",
                static_cast<unsigned long long>(m.ops));
  rep.preamble(params_string(base, extra));

  Table table({"structure", "alloc", "obs", "threads", "op", "ns/op"});
  {
    PnbBst<long> t;
    run_rows(table, t, mem::HeapAlloc::kName, m);
  }
  {
    NbBst<long> t;
    run_rows(table, t, mem::HeapAlloc::kName, m);
  }
  {
    LockedBst<long> t;
    run_rows(table, t, mem::HeapAlloc::kName, m);
  }
  {
    CowBst<long> t;
    run_rows(table, t, mem::HeapAlloc::kName, m);
  }
  // Arena ablation: scoped domain declared before the reclaimer so every
  // deferred free lands in a live domain (DESIGN.md §11).
  {
    mem::ArenaDomain dom;
    EpochReclaimer rec;
    PnbBst<long, std::less<long>, EpochReclaimer, NullOpStats,
           mem::ArenaAlloc>
        t(rec, mem::ArenaAlloc(dom));
    run_rows(table, t, mem::ArenaAlloc::kName, m);
  }
  {
    mem::ArenaDomain dom;
    EpochReclaimer rec;
    NbBst<long, std::less<long>, EpochReclaimer, NullOpStats,
          mem::ArenaAlloc>
        t(rec, mem::ArenaAlloc(dom));
    run_rows(table, t, mem::ArenaAlloc::kName, m);
  }
  using CountedPnb =
      PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  using CountedNb =
      NbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  for (const unsigned threads : {1u, 2u, 4u}) {
    run_obs_row<PnbBst<long>>(table, "off", threads, m);
    run_obs_row<CountedPnb>(table, "on", threads, m);
    run_obs_row<NbBst<long>>(table, "off", threads, m);
    run_obs_row<CountedNb>(table, "on", threads, m);
  }
  rep.emit(table);
  return 0;
}

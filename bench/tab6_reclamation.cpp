// Tab.E6 — Reclamation ablations.
//
// Part (a): epoch-based reclamation vs the leaky (no-reclamation)
// research-artifact configuration, for PNB-BST and NB-BST — the throughput
// cost of safe memory reclamation (epoch pinning, limbo management) and
// the memory consequence of not reclaiming (pending counts grow without
// bound under churn).
//
// Part (b): retired reshard generations under RESHARD CHURN on the
// sharded front-end. Writer threads hammer a ShardedPnbMap while the main
// thread migrates it continuously (reshard cutovers, each retiring a
// generation of 8 shard maps straight to the epoch reclaimer). Two
// policies:
//
//   epoch         nothing pins the retired generations: the reclaimer
//                 frees every cutover's maps once the transient pins of
//                 in-flight operations drop. pending_at_end is read after
//                 the writers are joined and the reclaimer flushed, so it
//                 is 0 with no manual call on the map. Mops/s includes the
//                 writer gauges the migration protocol adds.
//   pinned        one snapshot held across the whole window: its epoch pin
//                 holds every retired generation until the end
//                 (pending_at_end == everything retired), then it drops
//                 and the reclaimer frees the backlog. The Mops/s delta vs
//                 epoch is the cost/benefit of in-window reclamation.
//
// Each part (b) row runs the churn 3 times (smoke) or 5 times (full) on
// a fresh map and reports the MEDIAN Mops/s: one round's writer window is
// stretched by however the scheduler interleaves the migrations with the
// writers, and single rounds swing about 2x between identical runs.
//
// Columns (shared with part (a)): retired/freed/pending_at_end count shard
// MAPS for part (b) (node counts for part (a)) and are the same in every
// round; `reshards` rides in the structure cell as churn context.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "nbbst/nb_bst.h"
#include "shard/sharded_map.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

// Part (a) rows use CountingOpStats so the tree-side retire counters
// (nodes_retired, unpub_frees — src/core/op_stats.h) print next to the
// reclaimer-side retired/freed/pending gauges. The reclaimer also counts
// retired Info records, so `retired` >= `nodes_retired`; `unpub_frees`
// are speculative allocations freed directly, never reaching either.
template <class Tree, class Dom>
void run_one(Table& table, const char* policy, const BenchConfig& cfg) {
  Dom dom;
  RunResult r;
  {
    Tree tree(dom);
    r = bench_structure(tree, WorkloadMix::updates_only(), cfg);
    const OpStatsSnapshot st = tree.stats().snapshot();
    table.add_row({Tree::kName, policy, Table::num(r.mops(), 3),
                   Table::num(dom.retired_count()),
                   Table::num(dom.freed_count()),
                   Table::num(dom.pending_count()),
                   Table::num(st.nodes_retired),
                   Table::num(st.unpublished_frees), "0", "0"});
  }
}

// Arena rows: nodes/Infos come from ArenaDomain slab slots instead of the
// heap. The domain is declared BEFORE the reclaimer (DESIGN.md §11) and
// its gauges are read AFTER tree + reclaimer teardown, so arena_live
// doubles as a leak check: epoch reclamation must have returned every
// slot to the freelists by then.
template <class Tree, class Dom>
void run_one_arena(Table& table, const char* policy,
                   const BenchConfig& cfg) {
  mem::ArenaDomain arena;
  RunResult r;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::uint64_t pending = 0;
  std::uint64_t nodes_retired = 0;
  std::uint64_t unpub = 0;
  {
    Dom dom;
    Tree tree(dom, mem::ArenaAlloc(arena));
    r = bench_structure(tree, WorkloadMix::updates_only(), cfg);
    retired = dom.retired_count();
    freed = dom.freed_count();
    pending = dom.pending_count();
    const OpStatsSnapshot st = tree.stats().snapshot();
    nodes_retired = st.nodes_retired;
    unpub = st.unpublished_frees;
  }
  const mem::AllocStats as = arena.stats();
  table.add_row({Tree::kName, policy, Table::num(r.mops(), 3),
                 Table::num(retired), Table::num(freed),
                 Table::num(pending), Table::num(nodes_retired),
                 Table::num(unpub), Table::num(as.slot_allocs),
                 Table::num(as.slots_live())});
}

// One part (b) churn round on a fresh map: writer Mops/s over the
// writers' window, and the retired maps still pending at the end.
struct ChurnRound {
  double mops = 0;
  std::size_t pending = 0;
};

// Part (b): writers vs continuous migration churn, with or without a
// window-long snapshot pinning every retired generation. The churn
// volume is a FIXED migration count (not a timed window) so the
// retired/freed/pending columns are deterministic for the baseline diff;
// only Mops/s is tolerance-compared.
ChurnRound churn_round(const BenchConfig& cfg, bool pin_window,
                       std::uint64_t churns, std::uint64_t ops_per_writer) {
  using Sharded = ShardedPnbMap<long, long, 8>;
  Sharded map(RangeSplitter<long>{0, cfg.key_range});
  {  // prefill to steady density (single-threaded, pre-publication)
    std::vector<std::pair<long, long>> items;
    items.reserve(static_cast<std::size_t>(cfg.key_range) / 2);
    for (long k = 0; k < cfg.key_range; k += 2) items.emplace_back(k, k);
    map.bulk_load(std::move(items));
  }
  std::optional<Sharded::Snapshot> window_pin;
  if (pin_window) window_pin.emplace(map.snapshot());

  // Mixed 25i/25d/50f stream. The read share is load-bearing: a pure
  // write stream on few cores produces ledger entries during a migration
  // window about as fast as the replay drains them, so migrations stretch
  // and the row measures the feedback loop instead of the churn.
  // Writers publish coarse progress (every kProgressGrain ops) so the
  // churn below can pace itself against THEM, and each records its own
  // finish time so Mops/s is measured over the writers' actual window —
  // not over a wall-clock schedule both policies would satisfy equally.
  constexpr std::uint64_t kProgressGrain = 256;
  Timer timer;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> last_done_us{0};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    writers.emplace_back(
        [&map, &cfg, &timer, &progress, &last_done_us, ops_per_writer, t] {
          Xoshiro256 rng(thread_seed(cfg.seed, t));
          for (std::uint64_t i = 0; i < ops_per_writer; ++i) {
            const long k = static_cast<long>(rng.next_bounded(
                static_cast<std::uint64_t>(cfg.key_range)));
            switch (rng.next_bounded(4)) {
              case 0:
                map.insert(k, k);
                break;
              case 1:
                map.erase(k);
                break;
              default:
                map.contains(k);
                break;
            }
            if ((i + 1) % kProgressGrain == 0) {
              progress.fetch_add(kProgressGrain,
                                 std::memory_order_relaxed);
            }
          }
          progress.fetch_add(ops_per_writer % kProgressGrain,
                             std::memory_order_relaxed);
          const auto done =
              static_cast<std::uint64_t>(timer.elapsed_ms() * 1000.0);
          std::uint64_t prev = last_done_us.load(std::memory_order_relaxed);
          while (prev < done && !last_done_us.compare_exchange_weak(
                                    prev, done, std::memory_order_relaxed)) {
          }
        });
  }

  // Fire migration m when the writers have completed m/churns of their
  // total op budget: the fixed churn volume stays deterministic for the
  // baseline diff, and every migration overlaps live writer traffic.
  const std::uint64_t total_ops = ops_per_writer * cfg.threads;
  for (std::uint64_t m = 0; m < churns; ++m) {
    const std::uint64_t due = total_ops * m / churns;
    while (progress.load(std::memory_order_relaxed) < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (m % 3 == 2) {
      map.reshard(map.splitter());
    } else {
      const long hi = (m % 2 == 0) ? cfg.key_range : 2 * cfg.key_range;
      map.reshard(RangeSplitter<long>{0, hi});
    }
  }
  for (auto& th : writers) th.join();
  const std::uint64_t ops = total_ops;
  const double secs =
      static_cast<double>(last_done_us.load(std::memory_order_relaxed)) /
      1e6;

  // Writers are joined: with no pin left, the flush frees everything the
  // epoch row retired. The pinned row reads its backlog first (its pin is
  // still held), then drops the pin and flushes.
  if (!pin_window) EpochReclaimer::shared().quiescent_flush();
  const std::size_t pending = map.retired_maps();
  window_pin.reset();
  EpochReclaimer::shared().quiescent_flush();
  return {static_cast<double>(ops) / 1e6 / (secs > 0 ? secs : 1), pending};
}

void run_reshard_churn(Table& table, bool pin_window, std::uint64_t churns,
                       int rounds, const BenchConfig& full_cfg) {
  // A loss-free migration under full write pressure costs base-rebuild
  // PLUS in-order replay of every write its window accepted, so the churn
  // rows use a capped key range: at fig-scale ranges a single reshard
  // stretches to seconds and the run measures allocator pressure, not the
  // churn.
  BenchConfig cfg = full_cfg;
  cfg.key_range = std::min<long>(cfg.key_range, 4096);
  cfg.threads = std::min<unsigned>(cfg.threads, 2);
  // Fixed per-writer op budget (not a free-running timed loop): bounded
  // writer work bounds the migration/replay feedback, so the row's
  // runtime cannot blow up when the scheduler starves the replayer.
  const std::uint64_t ops_per_writer =
      cfg.seconds >= 0.1 ? 250000 : 10000;
  std::vector<double> mops;
  std::size_t pending = 0;
  for (int r = 0; r < rounds; ++r) {
    const ChurnRound round =
        churn_round(cfg, pin_window, churns, ops_per_writer);
    mops.push_back(round.mops);
    pending = round.pending;
  }
  std::sort(mops.begin(), mops.end());
  const std::uint64_t maps_retired = churns * 8;
  // The node-level and arena columns do not apply to map-granularity
  // churn rows; they print 0.
  table.add_row({"sharded-8", pin_window ? "pinned" : "epoch",
                 Table::num(mops[mops.size() / 2], 3),
                 Table::num(maps_retired), Table::num(maps_retired - pending),
                 Table::num(pending), "0", "0", "0", "0"});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  base.threads = static_cast<unsigned>(cli.get_int("threads", smoke ? 2 : 4));
  Reporter rep(cli, "Tab.E6",
               "reclamation ablation (50i/50d) + reshard churn");
  const auto churns = static_cast<std::uint64_t>(
      cli.get_int("churns", smoke ? 6 : 16));
  const int rounds = smoke ? 3 : 5;
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[48];
  std::snprintf(extra, sizeof(extra), "threads=%u rounds=%d", base.threads,
                rounds);
  rep.preamble(params_string(base, extra));

  Table table({"structure", "policy", "Mops/s", "retired", "freed",
               "pending_at_end", "nodes_retired", "unpub_frees",
               "arena_allocs", "arena_live"});
  using PnbEpoch =
      PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  using PnbLeaky =
      PnbBst<long, std::less<long>, LeakyReclaimer, CountingOpStats>;
  using NbEpoch =
      NbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>;
  using NbLeaky =
      NbBst<long, std::less<long>, LeakyReclaimer, CountingOpStats>;
  using PnbArena = PnbBst<long, std::less<long>, EpochReclaimer,
                          CountingOpStats, mem::ArenaAlloc>;
  using NbArena = NbBst<long, std::less<long>, EpochReclaimer,
                        CountingOpStats, mem::ArenaAlloc>;
  run_one<PnbEpoch, EpochReclaimer>(table, "epoch", base);
  run_one<PnbLeaky, LeakyReclaimer>(table, "leaky", base);
  run_one<NbEpoch, EpochReclaimer>(table, "epoch", base);
  run_one<NbLeaky, LeakyReclaimer>(table, "leaky", base);
  run_one_arena<PnbArena, EpochReclaimer>(table, "epoch", base);
  run_one_arena<NbArena, EpochReclaimer>(table, "epoch", base);
  run_reshard_churn(table, /*pin_window=*/false, churns, rounds, base);
  run_reshard_churn(table, /*pin_window=*/true, churns, rounds, base);
  rep.emit(table);
  return 0;
}

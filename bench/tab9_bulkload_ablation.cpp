// Tab.E9 — Bulk ingest ablation, two phases per tree size:
//
// COLD LOAD (rows seq-insert / bulk_build): getting n keys into an empty
// tree.
//
//   seq-insert   one thread, one lock-free insert per key in random order
//                (the only option the paper's structure offers) — the
//                vs_seq_x baseline for the cold rows;
//   bulk_build   src/ingest/bulk_build.h — sort + parallel balanced
//                subtree construction spliced under a sequential spine
//                (single-writer precondition; no CAS traffic at all).
//
// UPDATE BURST (rows seq-update / apply_batch): ingesting u = n/4 new keys
// into an ESTABLISHED bulk-built tree of n keys.
//
//   seq-update   one thread, one insert per key in random order — the
//                vs_seq_x baseline for the update rows;
//   apply_batch  src/ingest/batch_apply.h — the burst as one batch:
//                sorted, deduplicated, fanned across the executor through
//                the ordinary lock-free paths (locality + parallel issue;
//                per-op linearizability untouched).
//
// SPARSE BURST (rows seq-update-sparse / apply_batch-sparse): n/16 of the
// same burst keys in 256-op batches, the serving BATCH frame's size, into
// a fresh established tree of n keys, one thread. A batch's sorted keys
// lie far apart, so its ops share only the top of their paths and each
// op's descent is its own chain of cold misses.
//
//   seq-update-sparse   one insert per key, in batch order — the vs_seq_x
//                       baseline for the sparse rows;
//   apply_batch-sparse  one apply_batch per 256-op batch: the lockstep
//                       descent of each 16-op group overlaps the group's
//                       misses before its ops run (ingest/batch_apply.h).
//
// apply_batch is deliberately NOT benched as a cold-load mechanism: the
// batch normalizer sorts its ops, and sorted insertion into an empty
// unbalanced tree builds the degenerate Θ(n)-depth shape (quadratic total
// work — the old tab9's sorted-insert row, now a documented anti-pattern
// in ingest/batch_apply.h). Cold loads belong to bulk_build.
//
// After every build the read paths are probed (random finds on the base
// keys, 1k-wide range counts) so tree SHAPE is measured too: seq-insert of
// a random permutation gives an expected-O(log n)-depth tree, bulk_build a
// perfectly balanced one.
//
// NOTE on environments: like Fig.E7, the >1-thread rows only beat the
// 1-thread rows when the process actually spans multiple cores; on a
// core-pinned container they report fan-out overhead instead
// (docs/BENCHMARKS.md §4). bulk_build's vs_seq_x is algorithmic (balanced
// build vs n lock-free inserts) and holds either way.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "ingest/batch_apply.h"
#include "mem/alloc_policy.h"
#include "mem/arena.h"
#include "scan/executor.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

void shuffle_keys(std::vector<long>& keys, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.next_bounded(
                           static_cast<std::uint64_t>(i) + 1)]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  Reporter rep(cli, "Tab.E9",
               "bulk ingest ablation: cold load (seq-insert vs bulk_build), "
               "update burst (seq-update vs apply_batch) and sparse burst "
               "(256-op batches)");
  const auto sizes =
      sweep_list(cli, "sizes", smoke, {1L << 20}, {1L << 20, 1L << 22});
  auto threads = sweep_list(cli, "threads", smoke, {1, 4}, {1, 2, 4, 8});
  std::sort(threads.begin(), threads.end());
  const int probes =
      static_cast<int>(cli.get_int("probes", smoke ? 20000 : 100000));
  const int scans = static_cast<int>(cli.get_int("scans", smoke ? 50 : 200));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 42));
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[64];
  std::snprintf(extra, sizeof(extra), "probes=%d scans=%d", probes, scans);
  rep.preamble(stamped(extra));

  const long max_threads = *std::max_element(threads.begin(), threads.end());
  scan::ScanExecutor executor(static_cast<unsigned>(max_threads));

  Table table({"size", "build_mode", "threads", "build_ms", "mkeys_per_s",
               "vs_seq_x", "find_ns_op", "scan1k_us"});

  for (long n : sizes) {
    // Base set: the even keys of [0, 2n) — n keys, always present, so find
    // probes can assert hits. Update burst: u random odd keys.
    const long u = n / 4;
    std::vector<long> base(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) base[static_cast<std::size_t>(i)] = 2 * i;
    shuffle_keys(base, seed);
    std::vector<long> burst;
    burst.reserve(static_cast<std::size_t>(u));
    {
      Xoshiro256 rng(seed + 7);
      for (long i = 0; i < u; ++i) {
        burst.push_back(
            2 * static_cast<long>(rng.next_bounded(
                    static_cast<std::uint64_t>(n))) + 1);
      }
    }

    // Probes the built tree's read paths and emits one row. `baseline_ms`
    // is the phase's sequential reference (vs_seq_x denominator's dual).
    auto emit_row = [&](const char* mode, long th, double build_ms,
                        double baseline_ms, long ops, auto& tree) {
      Xoshiro256 rng(seed + 1);
      Timer find_timer;
      std::uint64_t hits = 0;
      for (int i = 0; i < probes; ++i) {
        hits += tree.contains(
            2 * static_cast<long>(rng.next_bounded(
                    static_cast<std::uint64_t>(n))));
      }
      const double find_ns =
          static_cast<double>(find_timer.elapsed_ns()) / probes;
      if (hits != static_cast<std::uint64_t>(probes)) {
        std::fprintf(stderr, "%s lost base keys under find probes\n", mode);
        std::exit(1);
      }
      Histogram h;
      for (int i = 0; i < scans; ++i) {
        const long lo = static_cast<long>(
            rng.next_bounded(static_cast<std::uint64_t>(2 * n - 2000)));
        const auto t0 = now_ns();
        tree.range_count(lo, lo + 1999);  // ~1k keys at 50% density
        h.record(now_ns() - t0);
      }
      table.add_row(
          {Table::num(std::int64_t{n}), mode, Table::num(std::int64_t{th}),
           Table::num(build_ms, 1),
           Table::num(static_cast<double>(ops) / 1000.0 / build_ms, 2),
           Table::num(baseline_ms / build_ms, 2), Table::num(find_ns, 1),
           Table::num(static_cast<double>(h.p50()) / 1000.0, 1)});
    };

    // --- cold load ----------------------------------------------------------
    double seq_ms;
    {
      auto tree = std::make_unique<PnbBst<long>>();
      Timer t;
      for (long k : base) tree->insert(k);
      seq_ms = t.elapsed_ms();
      emit_row("seq-insert", 1, seq_ms, seq_ms, n, *tree);
    }
    for (long th : threads) {
      auto tree = std::make_unique<PnbBst<long>>();
      const scan::ParallelScanOptions opts(static_cast<unsigned>(th), executor);
      auto input = base;  // outside the timer: seq-insert pays no copy
      Timer t;
      if (tree->bulk_load(std::move(input), opts) !=
          static_cast<std::size_t>(n)) {
        std::fprintf(stderr, "bulk_build dropped keys\n");
        return 1;
      }
      emit_row("bulk_build", th, t.elapsed_ms(), seq_ms, n, *tree);
    }

    // --- cold load, arena-backed --------------------------------------------
    // Same two modes on the arena allocator: seq-insert-arena isolates
    // the slab fast path on the insert-heavy build, bulk_build-arena adds
    // reserve_run slab adjacency (leaves/internals of one worker's range
    // land in contiguous runs), which the find/scan probe columns read
    // back as locality. vs_seq_x keeps the HEAP seq-insert denominator so
    // every cold row is comparable against the same baseline.
    using ArenaTree = PnbBst<long, std::less<long>, EpochReclaimer,
                             NullOpStats, mem::ArenaAlloc>;
    {
      mem::ArenaDomain dom;
      EpochReclaimer rec;
      ArenaTree tree(rec, mem::ArenaAlloc(dom));
      Timer t;
      for (long k : base) tree.insert(k);
      emit_row("seq-insert-arena", 1, t.elapsed_ms(), seq_ms, n, tree);
    }
    for (long th : threads) {
      mem::ArenaDomain dom;
      EpochReclaimer rec;
      ArenaTree tree(rec, mem::ArenaAlloc(dom));
      const scan::ParallelScanOptions opts(static_cast<unsigned>(th), executor);
      auto input = base;
      Timer t;
      if (tree.bulk_load(std::move(input), opts) !=
          static_cast<std::size_t>(n)) {
        std::fprintf(stderr, "bulk_build (arena) dropped keys\n");
        return 1;
      }
      emit_row("bulk_build-arena", th, t.elapsed_ms(), seq_ms, n, tree);
    }

    // --- update burst against an established balanced tree ------------------
    auto make_loaded = [&] {
      auto tree = std::make_unique<PnbBst<long>>();
      tree->bulk_load(base, scan::ParallelScanOptions(
                                static_cast<unsigned>(max_threads), executor));
      return tree;
    };
    double sequp_ms;
    {
      auto tree = make_loaded();
      Timer t;
      for (long k : burst) tree->insert(k);
      sequp_ms = t.elapsed_ms();
      emit_row("seq-update", 1, sequp_ms, sequp_ms, u, *tree);
    }
    for (long th : threads) {
      auto tree = make_loaded();
      std::vector<ingest::BatchOp<long>> ops;
      ops.reserve(burst.size());
      for (long k : burst) ops.push_back(ingest::BatchOp<long>::insert(k));
      const scan::ParallelScanOptions opts(static_cast<unsigned>(th), executor);
      Timer t;
      tree->apply_batch(std::move(ops), opts);
      emit_row("apply_batch", th, t.elapsed_ms(), sequp_ms, u, *tree);
    }

    // --- sparse burst: 256-op batches against an established tree -----------
    constexpr std::size_t kSparseBatch = 256;
    const long sparse = n / 16;
    double seqsp_ms;
    {
      auto tree = make_loaded();
      Timer t;
      for (long i = 0; i < sparse; ++i) {
        tree->insert(burst[static_cast<std::size_t>(i)]);
      }
      seqsp_ms = t.elapsed_ms();
      emit_row("seq-update-sparse", 1, seqsp_ms, seqsp_ms, sparse, *tree);
    }
    {
      auto tree = make_loaded();
      std::vector<std::vector<ingest::BatchOp<long>>> batches(1);
      for (long i = 0; i < sparse; ++i) {
        if (batches.back().size() == kSparseBatch) batches.emplace_back();
        batches.back().push_back(
            ingest::BatchOp<long>::insert(burst[static_cast<std::size_t>(i)]));
      }
      const scan::ParallelScanOptions opts(1, executor);
      Timer t;
      for (auto& batch : batches) tree->apply_batch(std::move(batch), opts);
      emit_row("apply_batch-sparse", 1, t.elapsed_ms(), seqsp_ms, sparse,
               *tree);
    }
  }
  rep.emit(table);
  return 0;
}

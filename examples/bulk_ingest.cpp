// Batch ingest end-to-end: the life cycle of a bulk-fed store.
//
//   1. COLD LOAD  — bulk_load 1M (key, value) pairs into a sharded map:
//      parallel balanced construction, no CAS traffic (single-writer
//      precondition holds — the store is still private).
//   2. BURST WRITES — a writer streams batched updates (apply_batch:
//      sorted, deduplicated, fanned across the executor through the
//      ordinary lock-free paths) while an auditor thread scans merged
//      snapshots, checks every observed pair, and checks each snapshot's
//      parallel count against its contents.
//   3. LIVE RESHARD — migrate the whole store to a wider routing function
//      while the auditor keeps reading: readers see the pre- or
//      post-reshard table, never a mix, and any write racing the cutover
//      is recorded in the migration's write-intent ledger and replayed —
//      nothing acknowledged is lost (loss-free reshard contract,
//      DESIGN.md §9).
//   4. AUTO RECLAMATION — the maps the reshard replaced stay alive only as
//      long as a pre-reshard snapshot's epoch pin exists; once the
//      auditor's last snapshot drops, the epoch reclaimer frees them
//      during ordinary update traffic and retired_maps() falls to 0, with
//      no manual reclaimer call.
//
//   build/examples/bulk_ingest [--keys=N] [--batches=N] [--batchsize=N]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/batch_apply.h"
#include "shard/sharded_map.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using pnbbst::ingest::BatchOp;
using pnbbst::scan::ParallelScanOptions;

// Value scheme the auditor can verify for any key: v == k * 7.
long value_of(long k) { return k * 7; }

}  // namespace

int main(int argc, char** argv) {
  pnbbst::Cli cli(argc, argv);
  const long keys = cli.get_int("keys", 1000000);
  const int batches = static_cast<int>(cli.get_int("batches", 40));
  const int batch_size = static_cast<int>(cli.get_int("batchsize", 20000));
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  const long keyspace = 2 * keys;  // batches write into the upper half too

  pnbbst::ShardedPnbMap<long, long, 8> store(
      pnbbst::RangeSplitter<long>{0, keys});

  // --- 1. cold load ---------------------------------------------------------
  std::vector<std::pair<long, long>> items;
  items.reserve(static_cast<std::size_t>(keys));
  for (long k = 0; k < keys; ++k) items.emplace_back(k, value_of(k));
  pnbbst::Timer load_timer;
  const std::size_t loaded =
      store.bulk_load(std::move(items), ParallelScanOptions(8));
  std::printf("[load] bulk_load: %zu keys in %.1f ms (balanced, phase 0)\n",
              loaded, load_timer.elapsed_ms());

  // --- 2. burst writes under a parallel scan audit --------------------------
  std::atomic<bool> stop{false};
  std::atomic<long> audits{0};
  std::thread auditor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      // One composite snapshot: its contents, and its count fanned across
      // the executor in key chunks, which must agree.
      auto snap = store.snapshot();
      const auto all = snap.range_scan(0, keyspace - 1);
      if (snap.parallel_range_count(0, keyspace - 1, 4) != all.size()) {
        std::fprintf(stderr, "AUDIT FAILED: parallel count disagrees\n");
        std::exit(1);
      }
      long prev = -1;
      for (const auto& [k, v] : all) {
        if (k <= prev || v != value_of(k)) {
          std::fprintf(stderr, "AUDIT FAILED at key %ld\n", k);
          std::exit(1);
        }
        prev = k;
      }
      audits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  pnbbst::Xoshiro256 rng(2026);
  pnbbst::Timer batch_timer;
  std::size_t changed = 0;
  for (int b = 0; b < batches; ++b) {
    // Mixed burst: new keys in the upper half, erases of earlier burst keys.
    std::vector<BatchOp<long, long>> ops;
    ops.reserve(static_cast<std::size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      const long k = keys + static_cast<long>(rng.next_bounded(
                                static_cast<std::uint64_t>(keys)));
      if (rng.next_bounded(4) != 0) {
        ops.push_back(BatchOp<long, long>::insert(k, value_of(k)));
      } else {
        ops.push_back(BatchOp<long, long>::erase(k));
      }
    }
    changed +=
        store.apply_batch(std::move(ops), ParallelScanOptions(4)).changed();
  }
  std::printf(
      "[burst] %d batches x %d ops in %.1f ms (%zu net changes) "
      "under %ld parallel audits\n",
      batches, batch_size, batch_timer.elapsed_ms(), changed,
      audits.load());

  // --- 3. live reshard (reads AND the audit keep flowing) -------------------
  const std::size_t before = store.size();
  pnbbst::Timer reshard_timer;
  const std::size_t migrated =
      store.reshard(pnbbst::RangeSplitter<long>{0, keyspace},
                    ParallelScanOptions(8));
  std::printf(
      "[reshard] migrated %zu entries to the [0, %ld) routing in %.1f ms; "
      "reads never blocked, racing writes replay from the intent ledger\n",
      migrated, keyspace, reshard_timer.elapsed_ms());
  std::printf("[gc] retired shard maps right after cutover: %zu "
              "(not yet freed; audit snapshots may still pin them)\n",
              store.retired_maps());

  stop.store(true, std::memory_order_release);
  auditor.join();

  const std::size_t after = store.size();
  std::printf("[verify] size before reshard %zu == after %zu; audits ran "
              "across the cutover: %ld\n",
              before, after, audits.load());
  if (before != after || store.get_or(0, -1) != 0 ||
      store.get_or(keys - 1, -1) != value_of(keys - 1)) {
    std::fprintf(stderr, "VERIFY FAILED\n");
    return 1;
  }
  // --- 4. automatic reclamation --------------------------------------------
  // The auditor's last snapshot is gone, so nothing pins the replaced maps.
  // Ordinary update bursts advance the epoch as they retire nodes, and the
  // reclaimer frees the maps along the way; a bounded number of bursts
  // must get retired_maps() to 0.
  constexpr int kMaxGcBursts = 50;
  int gc_bursts = 0;
  for (; gc_bursts < kMaxGcBursts && store.retired_maps() != 0; ++gc_bursts) {
    // Erase a stride of cold-loaded keys, then put them back unchanged.
    std::vector<BatchOp<long, long>> ops;
    for (long k = 1 + gc_bursts / 2; k < keys - 1;
         k += std::max(1L, keys / 512)) {
      ops.push_back(gc_bursts % 2 == 0
                        ? BatchOp<long, long>::erase(k)
                        : BatchOp<long, long>::insert(k, value_of(k)));
    }
    store.apply_batch(std::move(ops));
  }
  if (store.retired_maps() != 0) {
    std::fprintf(stderr, "GC FAILED: %zu retired maps still held after %d "
                 "update bursts\n",
                 store.retired_maps(), gc_bursts);
    return 1;
  }
  std::printf("[gc] retired_maps() == 0 after %d update bursts — freed by "
              "the epoch reclaimer, no manual call\n",
              gc_bursts);
  std::puts("bulk_ingest done");
  return 0;
}

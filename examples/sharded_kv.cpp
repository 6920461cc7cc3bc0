// Sharded key/value front-end: a user-session store on ShardedPnbMap.
// Writers churn sessions routed to range-partitioned shards while a monitor
// thread runs merged cross-shard scans; a final composite snapshot reports
// per-band occupancy. Demonstrates the consistency contract: point ops are
// per-shard linearizable, merged scans are per-key atomic across shards.
//
//   build/examples/sharded_kv [--sessions=N] [--writers=N]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "scan/parallel_scan.h"
#include "shard/sharded_map.h"
#include "util/cli.h"
#include "util/random.h"

namespace {

struct Session {
  long user_id;
  long last_seen;
};

constexpr long kUserSpace = 1 << 20;

}  // namespace

int main(int argc, char** argv) {
  pnbbst::Cli cli(argc, argv);
  const long sessions = cli.get_int("sessions", 200000);
  const unsigned writers =
      static_cast<unsigned>(cli.get_int("writers", 4));
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }

  // 8 shards, range-partitioned over the user-id space: point ops touch one
  // shard; a narrow scan touches only the shards its band overlaps.
  pnbbst::ShardedPnbMap<long, Session, 8> store(
      pnbbst::RangeSplitter<long>{0, kUserSpace});
  std::atomic<bool> done{false};

  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < writers; ++ti) {
    pool.emplace_back([&, ti] {
      pnbbst::Xoshiro256 rng(pnbbst::thread_seed(2026, ti));
      for (long i = 0; i < sessions / writers; ++i) {
        const long uid = static_cast<long>(rng.next_bounded(kUserSpace));
        if (rng.next_bounded(5) != 0) {
          store.insert(uid, Session{uid, i});
        } else {
          store.erase(uid);
        }
      }
    });
  }

  std::thread monitor([&] {
    pnbbst::Xoshiro256 rng(31337);
    long scans = 0;
    std::size_t seen = 0;
    while (!done.load()) {
      const long lo = static_cast<long>(rng.next_bounded(kUserSpace - 4096));
      seen += store.range_count(lo, lo + 4095);  // merged, wait-free/shard
      ++scans;
    }
    std::printf("[monitor] %ld merged scans, %zu sessions observed\n", scans,
                seen);
  });

  for (auto& th : pool) th.join();
  done = true;
  monitor.join();

  // Composite snapshot: one wait-free snapshot per shard, queried
  // consistently (repeatable) while the store would keep moving.
  auto snap = store.snapshot();
  std::printf("live sessions: %zu across 8 shards (phases:", snap.size());
  for (auto p : snap.phases()) std::printf(" %llu", (unsigned long long)p);
  std::printf(")\n");
  constexpr long kBand = kUserSpace / 8;
  for (int b = 0; b < 8; ++b) {
    std::printf("  band %d: %zu sessions\n", b,
                snap.range_count(b * kBand, (b + 1) * kBand - 1));
  }
  const auto oldest = snap.range_first(0, kUserSpace - 1, 3);
  std::printf("3 lowest user ids:");
  for (const auto& [uid, s] : oldest) std::printf(" %ld", uid);
  std::printf("\n");

  // Keyspace-wide audit through the parallel scan engine: the same frozen
  // composite snapshot, counted in key chunks concurrently on the shared
  // worker pool — identical result, less wall-clock on multi-core
  // machines.
  const std::size_t all = snap.parallel_range_count(
      0, kUserSpace - 1, pnbbst::scan::ParallelScanOptions(8));
  std::printf("parallel audit: %zu sessions (== %zu from the same snapshot)\n",
              all, snap.size());
  if (all != snap.size()) return 1;
  std::puts("sharded_kv done");
  return 0;
}

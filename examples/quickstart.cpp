// Quickstart: the PNB-BST public API in five minutes.
//
//   build/examples/quickstart
//
// Covers: insert/erase/contains, wait-free range queries, snapshots, and
// plugging in a reclaimer + operation statistics.
#include <cstdio>

#include "core/pnb_bst.h"

int main() {
  // A concurrent ordered set of longs. Defaults: std::less, shared
  // epoch-based reclamation, no stats.
  pnbbst::PnbBst<long> set;

  // --- Point operations (non-blocking, linearizable) ---
  set.insert(30);
  set.insert(10);
  set.insert(20);
  std::printf("insert duplicate 10 -> %s\n",
              set.insert(10) ? "true" : "false");        // false
  std::printf("contains 20        -> %s\n",
              set.contains(20) ? "true" : "false");      // true
  set.erase(20);
  std::printf("contains 20 (erased)-> %s\n",
              set.contains(20) ? "true" : "false");      // false

  // --- Range queries (wait-free, linearizable) ---
  for (long k = 0; k < 100; k += 7) set.insert(k);
  std::printf("keys in [10, 50]:");
  set.range_visit(10, 50, [](long k) { std::printf(" %ld", k); });
  std::printf("\n");
  std::printf("count in [0, 99]   -> %zu\n", set.range_count(0, 99));
  std::printf("size               -> %zu\n", set.size());

  // --- Snapshots: many queries against one consistent phase ---
  auto snap = set.snapshot();
  set.insert(1000);
  set.erase(0);
  std::printf("snapshot still has 0      -> %s\n",
              snap.contains(0) ? "true" : "false");      // true
  std::printf("snapshot lacks 1000       -> %s\n",
              snap.contains(1000) ? "false!" : "true");  // true (lacks it)
  std::printf("snapshot size / live size -> %zu / %zu\n", snap.size(),
              set.size());

  // --- Statistics + explicit reclaimer domain ---
  pnbbst::EpochReclaimer domain;
  {
    pnbbst::PnbBst<long, std::less<long>, pnbbst::EpochReclaimer,
                   pnbbst::CountingOpStats>
        counted(domain);
    for (long k = 0; k < 1000; ++k) counted.insert(k);
    for (long k = 0; k < 1000; ++k) counted.erase(k);
    const pnbbst::OpStatsSnapshot s = counted.stats().snapshot();
    std::printf("commits=%llu attempts=%llu\n",
                static_cast<unsigned long long>(s.commits),
                static_cast<unsigned long long>(s.attempts));
  }
  domain.quiescent_flush();
  std::printf("reclaimer: retired=%llu freed=%llu pending=%llu\n",
              static_cast<unsigned long long>(domain.retired_count()),
              static_cast<unsigned long long>(domain.freed_count()),
              static_cast<unsigned long long>(domain.pending_count()));
  std::puts("quickstart done");
  return 0;
}

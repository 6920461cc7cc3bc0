// torture — long-running randomized stress tool with online invariant
// checking, for soak-testing beyond what unit tests cover.
//
//   build/tools/torture [--structure=pnb|nbbst|locked|cow|skiplist]
//                       [--threads=N] [--secs=S] [--keyrange=K]
//                       [--scan-fraction=F] [--seed=X] [--rounds=R]
//
// Each round: prefill, run a mixed workload for S seconds with per-thread
// result checking where possible, then stop the world and audit:
//   - per-key reconciliation (net successful inserts == final membership),
//   - PNB-BST only: the current version's tree invariants (check_current,
//     core/validate.h) and reclamation accounting (the round's own epoch
//     domain drains to zero pending retirements at quiescence).
// Exit code 0 = all rounds clean.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baseline/cow_bst.h"
#include "baseline/lf_skiplist.h"
#include "baseline/locked_bst.h"
#include "core/pnb_bst.h"
#include "core/validate.h"
#include "nbbst/nb_bst.h"
#include "util/cli.h"
#include "util/timer.h"
#include "workload/workload.h"

namespace {

using namespace pnbbst;

struct TortureConfig {
  unsigned threads = 4;
  double secs = 2.0;
  long key_range = 1024;
  double scan_fraction = 0.05;
  std::uint64_t seed = 1;
  int rounds = 3;
};

// Per-key net counters for reconciliation (inserts - erases per key).
class NetCounters {
 public:
  explicit NetCounters(long key_range)
      : counters_(static_cast<std::size_t>(key_range)) {}
  void add(long key, long delta) {
    counters_[static_cast<std::size_t>(key)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  long net(long key) const {
    return counters_[static_cast<std::size_t>(key)].load(
        std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<long>> counters_;
};

// One round on `tree`; `audit(tree)` runs after the workers join and the
// reconciliation, and returns its own failure count.
template <class Tree, class Audit>
int run_round(const TortureConfig& cfg, int round, Tree& tree, Audit audit) {
  NetCounters nets(cfg.key_range);
  {
    Xoshiro256 rng(mix64(cfg.seed + static_cast<std::uint64_t>(round)));
    for (long i = 0; i < cfg.key_range / 2; ++i) {
      const long k = static_cast<long>(
          rng.next_bounded(static_cast<std::uint64_t>(cfg.key_range)));
      if (tree.insert(k)) nets.add(k, 1);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (unsigned ti = 0; ti < cfg.threads; ++ti) {
    pool.emplace_back([&, ti] {
      Xoshiro256 rng(thread_seed(cfg.seed + static_cast<std::uint64_t>(round),
                                 ti));
      std::uint64_t local_ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const long k = static_cast<long>(
            rng.next_bounded(static_cast<std::uint64_t>(cfg.key_range)));
        const double r = rng.next_double();
        if (r < cfg.scan_fraction) {
          long lo = k, hi = k + 64 < cfg.key_range ? k + 64 : cfg.key_range;
          const std::size_t n = tree.range_count(lo, hi);
          if (n > static_cast<std::size_t>(hi - lo + 1)) {
            std::fprintf(stderr,
                         "FAIL: scan returned %zu keys from a %ld-wide "
                         "range\n",
                         n, hi - lo + 1);
            failures.fetch_add(1);
          }
        } else if (r < cfg.scan_fraction + 0.45) {
          if (tree.insert(k)) nets.add(k, 1);
        } else if (r < cfg.scan_fraction + 0.9) {
          if (tree.erase(k)) nets.add(k, -1);
        } else {
          tree.contains(k);
        }
        ++local_ops;
      }
      ops.fetch_add(local_ops);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.secs));
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  // Audit: per-key reconciliation.
  int bad = failures.load();
  for (long k = 0; k < cfg.key_range; ++k) {
    const long net = nets.net(k);
    if (net != 0 && net != 1) {
      std::fprintf(stderr, "FAIL: key %ld net=%ld (lost/duplicated update)\n",
                   k, net);
      ++bad;
      continue;
    }
    if (tree.contains(k) != (net == 1)) {
      std::fprintf(stderr, "FAIL: key %ld membership mismatch (net=%ld)\n", k,
                   net);
      ++bad;
    }
  }
  bad += audit(tree);
  std::printf("  round %d: %llu ops, %s\n", round,
              static_cast<unsigned long long>(ops.load()),
              bad == 0 ? "clean" : "FAILURES");
  return bad;
}

template <class Tree>
int run_round(const TortureConfig& cfg, int round) {
  Tree tree;
  return run_round(cfg, round, tree, [](Tree&) { return 0; });
}

// PNB-BST round over a round-local epoch domain, so the drain audit counts
// only this round's retirements.
int run_round_pnb(const TortureConfig& cfg, int round) {
  EpochReclaimer domain;
  PnbBst<long> tree(domain);
  return run_round(cfg, round, tree, [&domain](PnbBst<long>& t) {
    int bad = 0;
    if (const ValidationReport rep = check_current(t); !rep) {
      std::fprintf(stderr, "FAIL: current version: %s\n", rep.error.c_str());
      ++bad;
    }
    domain.quiescent_flush();
    if (const std::uint64_t left = domain.pending_count(); left != 0) {
      std::fprintf(stderr, "FAIL: %llu retirements pending at quiescence\n",
                   static_cast<unsigned long long>(left));
      ++bad;
    }
    return bad;
  });
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  TortureConfig cfg;
  cfg.threads = static_cast<unsigned>(cli.get_int("threads", 4));
  cfg.secs = cli.get_double("secs", 2.0);
  cfg.key_range = cli.get_int("keyrange", 1024);
  cfg.scan_fraction = cli.get_double("scan-fraction", 0.05);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.rounds = static_cast<int>(cli.get_int("rounds", 3));
  const std::string structure = cli.get_string("structure", "pnb");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }

  std::printf("torture: structure=%s threads=%u secs=%.1f keyrange=%ld "
              "scans=%.2f rounds=%d\n",
              structure.c_str(), cfg.threads, cfg.secs, cfg.key_range,
              cfg.scan_fraction, cfg.rounds);
  int bad = 0;
  for (int round = 0; round < cfg.rounds; ++round) {
    if (structure == "pnb") {
      bad += run_round_pnb(cfg, round);
    } else if (structure == "nbbst") {
      bad += run_round<NbBst<long>>(cfg, round);
    } else if (structure == "locked") {
      bad += run_round<LockedBst<long>>(cfg, round);
    } else if (structure == "cow") {
      bad += run_round<CowBst<long>>(cfg, round);
    } else if (structure == "skiplist") {
      bad += run_round<LfSkipList<long>>(cfg, round);
    } else {
      std::fprintf(stderr, "unknown structure: %s\n", structure.c_str());
      return 2;
    }
  }
  std::printf("torture: %s\n", bad == 0 ? "ALL CLEAN" : "FAILURES DETECTED");
  return bad == 0 ? 0 : 1;
}

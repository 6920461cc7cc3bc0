// Tab.E8 — Key skew: update throughput and helping traffic under Zipf
// key distributions, PNB-BST vs NB-BST, plus the sharded front-end's
// skew story.
//
// Paper claim exercised (tree rows): helping is local — an operation only
// helps updates at the neighbourhood of the leaf it reaches — so even
// heavy skew (most operations landing on the same few leaves) degrades
// throughput through contention, not through helping cascades;
// helps/commit grows with theta but stays a small constant.
//
// Sharded rows (PR 10): the same Zipf stream against an 8-shard
// range-partitioned front-end in three modes —
//   static-skew  equal-width boundaries; Zipf ranks are contiguous low
//                keys, so the hot mass all lands on shard 0 and the
//                partition degenerates to one hot tree;
//   static-bal   boundaries fixed at the stream's own quantiles before
//                the run (the offline ideal the rebalancer aims for);
//   adaptive     equal-width start plus the background Rebalancer
//                (src/shard/rebalance.h) sensing write skew from its
//                key sample and resharding at sampled-key quantiles
//                when the proposed cuts are predicted to balance it.
// The adaptive row should recover most of static-bal's throughput and
// clearly beat static-skew at high theta; `rebalances` counts the
// triggers it took (0 for every non-adaptive row). A static Zipf stream
// needs one: the controller settles once its cuts balance the sample.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "benchsupport/reporter.h"
#include "core/pnb_bst.h"
#include "nbbst/nb_bst.h"
#include "obs/registry.h"
#include "shard/rebalance.h"
#include "shard/sharded_map.h"
#include "util/table.h"

namespace {

using namespace pnbbst;
using namespace pnbbst::bench;

template <class Tree>
void run_series(Table& table, const BenchConfig& base,
                const std::vector<double>& thetas) {
  for (double theta : thetas) {
    BenchConfig cfg = base;
    cfg.zipf_theta = theta;
    Tree tree;
    const RunResult r = bench_structure(tree, WorkloadMix::updates_only(), cfg);
    const OpStatsSnapshot s = tree.stats().snapshot();
    const double commits = static_cast<double>(s.commits);
    table.add_row(
        {Tree::kName, Table::num(theta, 2),
         Table::num(r.mops(), 3), Table::num(s.attempts),
         Table::num(s.helps),
         Table::num(commits > 0 ? static_cast<double>(s.helps) / commits
                                : 0.0,
                    4),
         Table::num(commits > 0 ? static_cast<double>(s.attempts) / commits
                                : 0.0,
                    3),
         Table::num(std::int64_t{0})});
  }
}

// --- Sharded front-end under skew -------------------------------------------

constexpr std::size_t kShards = 8;
using ShardMap = ShardedPnbMap<long, long, kShards, EpochReclaimer,
                               CountingOpStats>;

enum class ShardMode { kStaticSkew, kStaticBal, kAdaptive };

const char* mode_name(ShardMode m) {
  switch (m) {
    case ShardMode::kStaticSkew:
      return "static-skew";
    case ShardMode::kStaticBal:
      return "static-bal";
    case ShardMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

// Offline ideal boundaries: quantile cuts of the run's own key stream.
RangeSplitter<long> balanced_splitter(const BenchConfig& cfg) {
  OpStream probe(WorkloadMix::updates_only(), cfg.key_range,
                 cfg.seed ^ 0x5EED, /*tid=*/0, cfg.zipf_theta);
  std::vector<long> keys;
  keys.reserve(1 << 15);
  for (int i = 0; i < (1 << 15); ++i) keys.push_back(probe.next().key);
  std::sort(keys.begin(), keys.end());
  std::vector<long> cuts;
  cuts.reserve(kShards - 1);
  for (std::size_t i = 1; i < kShards; ++i) {
    cuts.push_back(keys[i * keys.size() / kShards]);
  }
  return RangeSplitter<long>::with_boundaries(0, cfg.key_range,
                                              std::move(cuts), kShards);
}

// Deterministic prefill to steady-state density (the sharded map is a
// key/value store; workload/prefill takes a set).
std::size_t prefill_map(ShardMap& map, long key_range, double density,
                        std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0xC0FFEE));
  std::size_t inserted = 0;
  const auto target =
      static_cast<std::size_t>(density * static_cast<double>(key_range));
  while (inserted < target) {
    const auto k = static_cast<long>(
        rng.next_bounded(static_cast<std::uint64_t>(key_range)));
    if (map.insert(k, k)) ++inserted;
  }
  return inserted;
}

void run_sharded_row(Table& table, const BenchConfig& base, double theta,
                     ShardMode mode) {
  BenchConfig cfg = base;
  cfg.zipf_theta = theta;
  ShardMap map(RangeSplitter<long>{0, cfg.key_range});
  if (mode == ShardMode::kStaticBal) map.reshard(balanced_splitter(cfg));
  prefill_map(map, cfg.key_range, cfg.prefill_density, cfg.seed);

  // Private registry per row: registry counters are find-or-create, so
  // reusing one registry would accumulate pnb_rebalance_* across rows.
  obs::MetricsRegistry reg;
  std::optional<Rebalancer<ShardMap>> rb;
  if (mode == ShardMode::kAdaptive) {
    typename Rebalancer<ShardMap>::Config rcfg;
    rcfg.labels = "map=\"tab8\"";
    rcfg.interval = std::chrono::milliseconds(10);
    rcfg.skew_threshold = 1.5;
    rcfg.cooldown_ticks = 5;
    rcfg.sample_every = 8;
    rcfg.min_samples = 512;
    rb.emplace(map, rcfg, reg);
    rb->start();
  }

  const WorkloadMix mix = WorkloadMix::updates_only();
  const RunResult r = run_timed(
      cfg.threads, cfg.seconds,
      [&map, &mix, &cfg](unsigned tid, const std::atomic<bool>& stop,
                         ThreadCounters& c) {
        OpStream stream(mix, cfg.key_range, cfg.seed, tid, cfg.zipf_theta);
        while (!stop.load(std::memory_order_acquire)) {
          const Op op = stream.next();
          if (op.kind == OpKind::kInsert) {
            ++c.inserts;
            c.update_successes += map.insert(op.key, op.key);
          } else {
            ++c.erases;
            c.update_successes += map.erase(op.key);
          }
          ++c.ops;
        }
      });

  std::uint64_t rebalances = 0;
  if (rb) {
    rb->stop();
    rebalances = rb->triggers();
    rb.reset();
  }
  // Lifetime mechanism counters: live shards plus the carried aggregate
  // from generations retired by adaptive reshards (bulk_load rebuilds
  // restart the live counters, so without the carry the adaptive rows
  // would only cover the post-last-reshard window — unstable run to run).
  const OpStatsSnapshot carried = map.carried_stats();
  std::uint64_t attempts = carried.attempts, helps = carried.helps,
                commits_n = carried.commits;
  for (std::size_t i = 0; i < ShardMap::shard_count(); ++i) {
    const OpStatsSnapshot s = map.shard_stats(i);
    attempts += s.attempts;
    helps += s.helps;
    commits_n += s.commits;
  }
  const double commits = static_cast<double>(commits_n);
  table.add_row(
      {std::string("sharded8/") + mode_name(mode), Table::num(theta, 2),
       Table::num(r.mops(), 3), Table::num(attempts), Table::num(helps),
       Table::num(commits > 0 ? static_cast<double>(helps) / commits : 0.0,
                  4),
       Table::num(
           commits > 0 ? static_cast<double>(attempts) / commits : 0.0, 3),
       Table::num(static_cast<std::int64_t>(rebalances))});
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool smoke = smoke_mode(cli);
  BenchConfig base = config_from_cli(cli);
  base.threads = static_cast<unsigned>(cli.get_int("threads", smoke ? 2 : 4));
  Reporter rep(cli, "Tab.E8", "Zipf skew: throughput and helping locality");
  for (const auto& unknown : cli.unknown()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.c_str());
    return 2;
  }
  char extra[32];
  std::snprintf(extra, sizeof(extra), "threads=%u", base.threads);
  rep.preamble(params_string(base, extra));

  const std::vector<double> thetas =
      smoke ? std::vector<double>{0.0, 0.99}
            : std::vector<double>{0.0, 0.5, 0.9, 0.99};
  Table table({"structure", "zipf_theta", "Mops/s", "attempts", "helps",
               "helps/commit", "attempts/commit", "rebalances"});
  run_series<PnbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>>(
      table, base, thetas);
  run_series<NbBst<long, std::less<long>, EpochReclaimer, CountingOpStats>>(
      table, base, thetas);
  // Sharded section: only the skewed thetas are interesting for the mode
  // comparison, but theta 0 rows pin the "all modes equal under uniform
  // load" sanity line.
  for (double theta : thetas) {
    run_sharded_row(table, base, theta, ShardMode::kStaticSkew);
    run_sharded_row(table, base, theta, ShardMode::kStaticBal);
    run_sharded_row(table, base, theta, ShardMode::kAdaptive);
  }
  rep.emit(table);
  return 0;
}

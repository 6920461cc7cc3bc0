// Shared machinery for the figure/table bench binaries.
//
// Every binary follows the same recipe: build a fresh tree per
// configuration, prefill to steady-state density, run a timed window with
// per-thread deterministic op streams, report a table row per series point.
#pragma once

#include <sched.h>
#include <unistd.h>

#include <string>

#include "benchsupport/runner.h"
#include "util/cli.h"
#include "util/timer.h"
#include "workload/workload.h"

namespace pnbbst::bench {

struct BenchConfig {
  unsigned threads = 2;
  double seconds = 0.25;
  long key_range = 1 << 16;
  std::uint64_t seed = 42;
  double zipf_theta = 0.0;
  double prefill_density = 0.5;
};

// Runs `mix` against `tree` under `cfg`; assumes the tree is prefilled.
template <class Tree>
RunResult run_mix(Tree& tree, const WorkloadMix& mix, const BenchConfig& cfg) {
  return run_timed(
      cfg.threads, cfg.seconds,
      [&tree, &mix, &cfg](unsigned tid, const std::atomic<bool>& stop,
                          ThreadCounters& c) {
        OpStream stream(mix, cfg.key_range, cfg.seed, tid, cfg.zipf_theta);
        while (!stop.load(std::memory_order_acquire)) {
          const Op op = stream.next();
          switch (op.kind) {
            case OpKind::kInsert:
              ++c.inserts;
              c.update_successes += tree.insert(op.key);
              break;
            case OpKind::kErase:
              ++c.erases;
              c.update_successes += tree.erase(op.key);
              break;
            case OpKind::kFind:
              ++c.finds;
              tree.contains(op.key);
              break;
            case OpKind::kRangeScan: {
              ++c.scans;
              const auto t0 = now_ns();
              c.scanned_keys += tree.range_count(op.key, op.key2);
              c.scan_latency_ns.record(now_ns() - t0);
              break;
            }
          }
          ++c.ops;
        }
      });
}

// Prefill + run, constructing the tree with the caller's factory.
template <class Tree>
RunResult bench_structure(Tree& tree, const WorkloadMix& mix,
                          const BenchConfig& cfg) {
  prefill(tree, cfg.key_range, cfg.prefill_density, cfg.seed);
  return run_mix(tree, mix, cfg);
}

// True when the binary was invoked with --smoke: the short-run profile used
// by the `ctest -L bench-smoke` targets. Smoke mode shrinks the timed window
// and key range here, and each main shrinks its sweep lists, so the whole
// bench inventory finishes in seconds while still exercising every code
// path. Explicit flags (--secs=...) still override the smoke defaults.
inline bool smoke_mode(const Cli& cli) { return cli.get_bool("smoke", false); }

// Sweep list with smoke-aware defaults; an explicit --<name>=... wins.
inline std::vector<std::int64_t> sweep_list(
    const Cli& cli, const std::string& name, bool smoke,
    const std::vector<std::int64_t>& smoke_def,
    const std::vector<std::int64_t>& full_def) {
  return cli.get_int_list(name, smoke ? smoke_def : full_def);
}

inline BenchConfig config_from_cli(const Cli& cli) {
  BenchConfig cfg;
  if (smoke_mode(cli)) {
    cfg.seconds = 0.02;
    cfg.key_range = 1 << 10;
  }
  cfg.seconds = cli.get_double("secs", cfg.seconds);
  cfg.key_range = cli.get_int("keyrange", cfg.key_range);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.zipf_theta = cli.get_double("zipf", 0.0);
  return cfg;
}

// The hardware a run saw: `nproc=<online CPUs> affinity=<CPU list this
// process may run on>`, e.g. "nproc=4 affinity=0-3". tools/bench_diff.py
// warns when a fresh run's stamp differs from its baseline's, since a
// multi-thread row recorded on one core does not predict four.
inline std::string hardware_stamp() {
  std::string out =
      "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + " affinity=";
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out + "unknown";
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;  // CPU lists print runs as "first-last"
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!first) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) {
      out += '-';
      out += std::to_string(last);
    }
    first = false;
    cpu = last;
  }
  return out;
}

// `params` followed by the hardware stamp: what every --json params
// string carries.
inline std::string stamped(const std::string& params) {
  return params + " " + hardware_stamp();
}

inline std::string params_string(const BenchConfig& cfg,
                                 const std::string& extra = "") {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "keyrange=%ld secs=%.2f seed=%llu zipf=%.2f",
                cfg.key_range, cfg.seconds,
                static_cast<unsigned long long>(cfg.seed), cfg.zipf_theta);
  return stamped(extra.empty() ? buf : std::string(buf) + " " + extra);
}

}  // namespace pnbbst::bench

// Run configuration, CPU placement and the per-workload role map shared by
// the wire run (wire.h) and the in-process ladder (ladder.h).
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "obs/latency.h"

namespace pnbbench {

struct Config {
  Workload workload = Workload::kPointUniform;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // measured window
  bool trace = false;
  int keyspace_bits = 21;
  int setups = 5;  // setup_s is the median over these
  bool self_test = false;
  std::string trace_dir = "pnbbench-traces";

  std::int64_t keyspace() const { return std::int64_t{1} << keyspace_bits; }
  // 2 s segments; the window's metrics are medians over segments.
  int segments() const {
    return std::max(1, static_cast<int>(std::lround(seconds / 2.0)));
  }
  double warmup() const { return std::clamp(seconds / 8.0, 0.2, 3.0); }
  // Ops each connection's stream replays at every ladder rung. Fixed per
  // workload (scaled down with the keyspace) so each rung runs ~1 s.
  std::size_t ladder_ops(unsigned conn) const {
    std::size_t base = 200000;
    if (workload == Workload::kScanMix) base = 20000;
    if (workload == Workload::kIngestBatch && conn == 0) base = 2000;
    const int shrink = 21 - keyspace_bits;
    return std::max<std::size_t>(50, shrink > 0 ? base >> std::min(shrink, 6)
                                                : base);
  }
};

// CPU placement. With at least 4 CPUs in the process's affinity mask, the
// server's threads share the first two and each client connection (or
// ladder replay thread) gets one of the next two to itself, so a client
// never shares a core with a loop and runs do not differ by where the
// scheduler happened to put threads. With fewer CPUs nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }
  bool pinned() const { return cpus_.size() >= 4; }
  void server() const { pin_self({0, 1}); }
  // Gives each of the server's event-loop threads (the tids the server's
  // start() created) a server CPU of its own.
  void loops(const std::vector<pid_t>& tids) const {
    if (!pinned()) return;
    for (std::size_t i = 0; i < tids.size(); ++i) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[i % 2], &set);
      sched_setaffinity(tids[i], sizeof(set), &set);
    }
  }
  void client(unsigned conn) const { pin_self({2 + static_cast<int>(conn)}); }
  void any() const {
    std::vector<int> all(cpus_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    pin_self(all);
  }

 private:
  // Restricts the calling thread (and threads it creates later) to the
  // given indices into the affinity mask.
  void pin_self(const std::vector<int>& idx) const {
    if (!pinned()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i : idx) CPU_SET(cpus_[static_cast<std::size_t>(i)], &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }

  std::vector<int> cpus_;
};

// The calling process's thread ids.
inline std::vector<pid_t> thread_ids() {
  std::vector<pid_t> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Taken on first use, from the main thread before anything is pinned.
inline const Placement& placement() {
  static const Placement p;
  return p;
}

// Every workload has a read role and a write role; the gated end-to-end
// latencies are reported per role so that each metric exists on every
// workload:
//   workload        read           write
//   point-uniform   GET            PUT+DEL
//   skew-hot        GET            PUT+DEL
//   scan-mix        narrow RANGE   PUT+DEL
//   ingest-batch    GET            BATCH (256 entries)
struct Roles {
  std::vector<OpKind> read;
  std::vector<OpKind> write;
};

inline Roles roles_of(Workload w) {
  switch (w) {
    case Workload::kScanMix:
      return {{OpKind::kRange}, {OpKind::kPut, OpKind::kDel}};
    case Workload::kIngestBatch:
      return {{OpKind::kGet}, {OpKind::kBatch}};
    case Workload::kPointUniform:
    case Workload::kSkewHot:
      break;
  }
  return {{OpKind::kGet}, {OpKind::kPut, OpKind::kDel}};
}

inline constexpr std::size_t kNumKinds = 6;
inline constexpr const char* kKindNames[kNumKinds] = {
    "get", "put", "del", "range", "wide_range", "batch"};

// The server's latency-plane class that times each op kind.
inline pnbbst::obs::OpClass plane_class(OpKind k) {
  using pnbbst::obs::OpClass;
  switch (k) {
    case OpKind::kGet:
      return OpClass::kFind;
    case OpKind::kPut:
      return OpClass::kInsert;
    case OpKind::kDel:
      return OpClass::kErase;
    case OpKind::kRange:
    case OpKind::kWide:
      return OpClass::kScan;
    case OpKind::kBatch:
      break;
  }
  return OpClass::kBatch;
}

// Outcome of one workload run: gated metrics, informational lines, and
// the correctness verdict.
struct RunResult {
  bool correct = true;
  std::string wrong;  // first wrong answer, when !correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  void fail(const std::string& why) {
    if (correct) wrong = why;
    correct = false;
  }
};

}  // namespace pnbbench

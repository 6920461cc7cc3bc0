// Workload specification and per-thread operation stream generation.
//
// A WorkloadMix fixes the probability of each operation kind; an OpStream
// draws (op, key) pairs deterministically per thread from a base seed, with
// uniform or Zipf-distributed keys over a dense integer key space — the
// setbench-style microbenchmark setup.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/random.h"
#include "workload/zipf.h"

namespace pnbbst {

enum class OpKind : std::uint8_t {
  kInsert,
  kErase,
  kFind,
  kRangeScan,
};

struct WorkloadMix {
  double insert = 0.0;
  double erase = 0.0;
  double find = 0.0;
  double scan = 0.0;       // remaining probability
  std::int64_t scan_width = 100;

  static WorkloadMix updates_only() { return {0.5, 0.5, 0.0, 0.0, 0}; }
  static WorkloadMix read_mostly() { return {0.05, 0.05, 0.9, 0.0, 0}; }
  static WorkloadMix balanced() { return {0.25, 0.25, 0.5, 0.0, 0}; }
  static WorkloadMix with_scans(double scan_fraction, std::int64_t width) {
    const double upd = (1.0 - scan_fraction) / 2.0;
    return {upd, upd, 0.0, scan_fraction, width};
  }

  std::string describe() const;
};

struct Op {
  OpKind kind;
  std::int64_t key;
  std::int64_t key2 = 0;  // inclusive upper bound for range scans
};

// Deterministic per-thread op stream over keys [0, key_range).
class OpStream {
 public:
  // The exact RNG seed a given (base_seed, thread_id) stream starts
  // from. Exposed so harnesses (loadgen, benches) can document and test
  // reproducibility: two OpStreams with equal (mix, key_range,
  // base_seed, thread_id, zipf_theta) emit identical op sequences on
  // any machine, regardless of which OS thread runs them.
  static constexpr std::uint64_t stream_seed(std::uint64_t base_seed,
                                             unsigned thread_id) noexcept {
    return thread_seed(base_seed, thread_id);
  }

  OpStream(const WorkloadMix& mix, std::int64_t key_range,
           std::uint64_t base_seed, unsigned thread_id, double zipf_theta = 0.0)
      : mix_(mix),
        key_range_(key_range),
        rng_(stream_seed(base_seed, thread_id)),
        zipf_(zipf_theta > 0.0 ? std::make_unique<ZipfSampler>(
                                     static_cast<std::uint64_t>(key_range),
                                     zipf_theta)
                               : nullptr) {
    assert(key_range > 0);
  }

  Op next() {
    const double r = rng_.next_double();
    const std::int64_t k = draw_key();
    if (r < mix_.insert) return {OpKind::kInsert, k};
    if (r < mix_.insert + mix_.erase) return {OpKind::kErase, k};
    if (r < mix_.insert + mix_.erase + mix_.find) return {OpKind::kFind, k};
    std::int64_t lo = draw_key();
    if (lo > key_range_ - mix_.scan_width) {
      lo = key_range_ - mix_.scan_width;
      if (lo < 0) lo = 0;
    }
    return {OpKind::kRangeScan, lo, lo + mix_.scan_width - 1};
  }

  Xoshiro256& rng() noexcept { return rng_; }

 private:
  std::int64_t draw_key() {
    if (zipf_) {
      return static_cast<std::int64_t>(zipf_->sample(rng_));
    }
    return static_cast<std::int64_t>(
        rng_.next_bounded(static_cast<std::uint64_t>(key_range_)));
  }

  WorkloadMix mix_;
  std::int64_t key_range_;
  Xoshiro256 rng_;
  std::unique_ptr<ZipfSampler> zipf_;
};

// Prefills a set (any OrderedSet) to the expected steady-state density (half
// the key range for symmetric insert/erase mixes). Deterministic.
template <class Set>
std::size_t prefill(Set&& set, std::int64_t key_range, double density,
                    std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0xC0FFEE));
  std::size_t inserted = 0;
  const auto target = static_cast<std::size_t>(
      density * static_cast<double>(key_range));
  while (inserted < target) {
    const auto k = static_cast<std::int64_t>(
        rng.next_bounded(static_cast<std::uint64_t>(key_range)));
    if (set.insert(k)) ++inserted;
  }
  return inserted;
}

inline std::string WorkloadMix::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "i%.0f/d%.0f/f%.0f/s%.0f(w=%lld)",
                insert * 100, erase * 100, find * 100, scan * 100,
                static_cast<long long>(scan_width));
  return buf;
}

}  // namespace pnbbst

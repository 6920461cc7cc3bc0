// 1-in-N key sampling for the adaptive rebalancer (DESIGN.md §15).
//
// The rebalancer needs an approximate picture of WHERE writes land in the
// keyspace to pick new RangeSplitter boundaries. Maintaining an exact
// histogram on the write path would tax every writer; instead writers pass
// every key through KeySampler::maybe_record, which is one relaxed atomic
// load plus a thread-local countdown decrement when sampling is enabled,
// and a single early return when it is off — the same zero-cost-when-off
// shape as the op-latency plane (src/obs/latency.h).
//
// Sampled keys go into a fixed power-of-two ring overwritten oldest-first,
// i.e. a recency-weighted reservoir: after a workload shift the ring drains
// stale keys at the sampling rate, so boundary decisions track the CURRENT
// hot range rather than the all-time distribution. snapshot() reads the
// ring racily (each slot is an atomic<K>, so values never tear; ordering
// across slots is approximate) — fine for quantile estimation, never used
// for correctness.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pnbbst {

template <class K>
class KeySampler {
  static_assert(std::is_integral_v<K>,
                "key sampling feeds RangeSplitter boundary estimation, "
                "which needs an integral keyspace");

 public:
  // 8192 slots * 8B = 64KiB: big enough that 8-way quantiles have ~1k
  // samples per shard, small enough to sit in L2 during a snapshot.
  static constexpr std::size_t kSlots = 8192;

  explicit KeySampler(std::uint32_t sample_every = 0)
      : every_(sample_every), slots_(kSlots) {}

  KeySampler(const KeySampler&) = delete;
  KeySampler& operator=(const KeySampler&) = delete;

  // Write-path hook. The countdown is thread_local and SHARED across all
  // KeySampler instances in the process (like LatencyPlane's): a thread
  // writing through two sampled maps interleaves its samples between them.
  // That costs cross-instance sample-rate precision, not correctness, and
  // keeps the hot path free of per-instance TLS lookups.
  void maybe_record(const K& k) noexcept {
    const std::uint32_t every = every_.load(std::memory_order_relaxed);
    if (every == 0) return;
    static thread_local std::uint32_t countdown = 1;
    if (--countdown != 0) return;
    countdown = every;
    const std::uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
    slots_[i & (kSlots - 1)].store(k, std::memory_order_relaxed);
  }

  // Total keys ever sampled (monotone; min(recorded, kSlots) are live).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  // Racy copy of the live window. Slots being overwritten concurrently
  // yield either the old or the new key — both are real sampled keys.
  std::vector<K> snapshot() const {
    const std::uint64_t n = head_.load(std::memory_order_relaxed);
    const std::size_t live = static_cast<std::size_t>(
        n < kSlots ? n : static_cast<std::uint64_t>(kSlots));
    std::vector<K> out;
    out.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      out.push_back(slots_[i].load(std::memory_order_relaxed));
    }
    return out;
  }

 private:
  std::atomic<std::uint32_t> every_;
  std::atomic<std::uint64_t> head_{0};
  std::vector<std::atomic<K>> slots_;
};

}  // namespace pnbbst

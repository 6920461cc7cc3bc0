// Log-bucketed latency histogram with percentile queries.
//
// Buckets are HdrHistogram-style: 64 major (power-of-two) groups with
// kSubBuckets linear sub-buckets each, giving ~1.6% relative error across
// the full 64-bit nanosecond range with a fixed, allocation-free footprint.
//
// The cell type sets the concurrency contract. Histogram (plain uint64_t
// cells) is single-threaded and copyable. RelaxedHistogram (relaxed-atomic
// cells) takes concurrent record() calls and may be merged from another
// thread while they run, which is what the obs latency plane needs.
// merge() folds bucket by bucket in O(kBuckets) and keeps sum and max
// exact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pnbbst {

template <class Cell>
class BasicHistogram {
 public:
  static constexpr std::size_t kSubBits = 6;  // 64 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = 1u << kSubBits;
  // Values < kSubBuckets are exact (one linear octave-group), then one
  // group per remaining octave up to msb 63 — so the largest index,
  // (63 - kSubBits + 1) * kSubBuckets + (kSubBuckets - 1), is in range
  // for the full 64-bit domain.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

  BasicHistogram() : counts_(kBuckets) {}

  void record(std::uint64_t value) noexcept {
    add(counts_[index_for(value)], 1);
    add(total_, 1);
    add(sum_, value);
    raise(max_seen_, value);
  }

  // Folds `other` in. Buckets are read one at a time, so merging a
  // RelaxedHistogram that is still recording is exact to within in-flight
  // records; the count is the total of the buckets read, so count() and
  // count_le() always agree.
  template <class OtherCell>
  void merge(const BasicHistogram<OtherCell>& other) noexcept {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = load(other.counts_[i]);
      add(counts_[i], c);
      n += c;
    }
    add(total_, n);
    add(sum_, load(other.sum_));
    raise(max_seen_, load(other.max_seen_));
  }

  std::uint64_t count() const noexcept { return load(total_); }
  std::uint64_t sum() const noexcept { return load(sum_); }
  std::uint64_t max() const noexcept { return load(max_seen_); }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  // Value at quantile q in [0,1]; returns the representative (midpoint)
  // value of the containing bucket.
  std::uint64_t quantile(double q) const noexcept;

  // Cumulative count backing le-bucketed Prometheus exposition
  // (obs/adapters.h): recorded values in buckets up to and including v's
  // bucket. Exact to bucket resolution (~1.6% relative error — values
  // sharing v's bucket but greater than v are included); monotone in v
  // because index_for is monotone.
  std::uint64_t count_le(std::uint64_t v) const noexcept {
    const std::size_t last = index_for(v);
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= last; ++i) n += load(counts_[i]);
    return n;
  }

  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p90() const noexcept { return quantile(0.90); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  std::uint64_t p999() const noexcept { return quantile(0.999); }

  void reset() noexcept {
    for (Cell& c : counts_) c = 0;
    total_ = 0;
    sum_ = 0;
    max_seen_ = 0;
  }

  // Human-readable one-line summary (ns assumed).
  std::string summary() const;

  static std::size_t index_for(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int msb = 63 - __builtin_clzll(value);
    const auto shift = static_cast<unsigned>(msb) - kSubBits;
    const std::size_t sub = (value >> shift) & (kSubBuckets - 1);
    const std::size_t index =
        (static_cast<std::size_t>(msb) - kSubBits + 1) * kSubBuckets + sub;
    // Values with the top octaves set (>= 2^63) would index past the
    // table; saturate into the last bucket instead of writing OOB.
    return index < kBuckets ? index : kBuckets - 1;
  }

  static std::uint64_t value_for(std::size_t index) noexcept {
    if (index < kSubBuckets) return index;
    const std::size_t octave = index / kSubBuckets;     // >= 1
    const std::size_t sub = index % kSubBuckets;
    const unsigned shift = static_cast<unsigned>(octave) - 1;
    const std::uint64_t base = (kSubBuckets + sub) << shift;
    const std::uint64_t width = 1ull << shift;
    return base + width / 2;  // midpoint
  }

 private:
  template <class>
  friend class BasicHistogram;

  static std::uint64_t load(const std::uint64_t& c) noexcept { return c; }
  static std::uint64_t load(const std::atomic<std::uint64_t>& c) noexcept {
    return c.load(std::memory_order_relaxed);
  }
  static void add(std::uint64_t& c, std::uint64_t n) noexcept { c += n; }
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.fetch_add(n, std::memory_order_relaxed);
  }
  static void raise(std::uint64_t& c, std::uint64_t v) noexcept {
    if (v > c) c = v;
  }
  static void raise(std::atomic<std::uint64_t>& c, std::uint64_t v) noexcept {
    std::uint64_t prev = c.load(std::memory_order_relaxed);
    while (v > prev &&
           !c.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  std::vector<Cell> counts_;
  Cell total_{0};
  Cell sum_{0};
  Cell max_seen_{0};
};

using Histogram = BasicHistogram<std::uint64_t>;
using RelaxedHistogram = BasicHistogram<std::atomic<std::uint64_t>>;

}  // namespace pnbbst

// Measurement primitives for pnbbench: clock, latency histogram with
// interpolated quantiles, spans, and named metrics. Kept inside the
// benchmark so a change to src/util/ cannot change how results are read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pnbbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Log-linear histogram (32 linear sub-buckets per octave, <= 3.1% bucket
// width). Quantiles interpolate linearly inside the bucket, so a value is
// not pinned to a bucket edge and differs run to run as the data does.
class LatHist {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::size_t kPer = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kPer;

  LatHist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++total_;
  }
  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  std::uint64_t count() const { return total_; }

  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= target) {
        return lower(i) + (target - cum) / c * width(i);
      }
      cum += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kPer) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - kSubBits;
    const std::size_t sub = (v >> shift) & (kPer - 1);
    return (msb - kSubBits + 1) * kPer + sub;
  }
  static double lower(std::size_t i) {
    if (i < kPer) return static_cast<double>(i);
    const std::size_t shift = i / kPer - 1;
    return static_cast<double>((kPer + i % kPer) << shift);
  }
  static double width(std::size_t i) {
    return i < kPer ? 1.0 : static_cast<double>(std::uint64_t{1} << (i / kPer - 1));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One timed call at one layer, identified by the request id (conn, seq)
// it shares with the same op at every other layer.
enum class Layer : std::uint8_t { kWire, kShard, kMap, kBst };
inline constexpr const char* kLayerNames[] = {"wire", "shard", "map", "bst"};

struct Span {
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t seq;
  Layer layer;
  std::uint8_t kind;
  std::uint8_t conn;
};

// Preallocated span buffer; one per recording thread. A full buffer drops
// spans rather than allocate on the measured path.
class SpanBuf {
 public:
  explicit SpanBuf(std::size_t cap = 0) { spans_.reserve(cap); }
  void add(const Span& s) {
    if (spans_.size() < spans_.capacity()) spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t n;
};

}  // namespace pnbbench

// Seeded input generator for pnbbench.
//
// Everything the benchmark feeds the program — the prefill set and every
// connection's op stream — is a pure function of (workload, seed, conn,
// keyspace) computed here, with no dependency on src/. A later change to
// src/workload/ or src/util/random.h therefore cannot change the inputs
// the benchmark measures.
//
// Key ownership: connection `c` writes only keys k with k % 2 == c, so each
// connection keeps an exact model of its own keys. Reads may target either
// parity. Every stored value is value_of(key).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace pnbbench {

inline std::int64_t value_of(std::int64_t key) { return key ^ 0x5DEECE66DLL; }

inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }

  std::uint64_t next() {
    const std::uint64_t out = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return out;
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Zipf over ranks 1..n with exponent theta, by rejection-inversion
// (Hoermann & Derflinger 1996): O(1) per draw, no table.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    h_x1_ = big_h(1.5) - 1.0;
    h_n_ = big_h(static_cast<double>(n) + 0.5);
    s_ = 2.0 - big_h_inv(big_h(2.5) - h(2.0));
  }

  std::uint64_t operator()(Rng& rng) const {
    for (;;) {
      const double u = h_n_ + rng.unit() * (h_x1_ - h_n_);
      const double x = big_h_inv(u);
      double k = std::floor(x + 0.5);
      k = std::clamp(k, 1.0, static_cast<double>(n_));
      if (k - x <= s_ || u >= big_h(k + 0.5) - h(k)) {
        return static_cast<std::uint64_t>(k);
      }
    }
  }

 private:
  double h(double x) const { return std::exp(-theta_ * std::log(x)); }
  double big_h(double x) const {
    const double lx = std::log(x);
    return expm1_over((1.0 - theta_) * lx) * lx;
  }
  double big_h_inv(double x) const {
    double t = x * (1.0 - theta_);
    if (t < -1.0) t = -1.0;
    return std::exp(log1p_over(t) * x);
  }
  static double log1p_over(double x) {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x
                              : 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
  }
  static double expm1_over(double x) {
    return std::abs(x) > 1e-8
               ? std::expm1(x) / x
               : 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
  }

  std::uint64_t n_;
  double theta_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double s_ = 0.0;
};

enum class Workload { kPointUniform, kSkewHot, kScanMix, kIngestBatch };
inline constexpr Workload kAllWorkloads[] = {
    Workload::kPointUniform, Workload::kSkewHot, Workload::kScanMix,
    Workload::kIngestBatch};

inline const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPointUniform:
      return "point-uniform";
    case Workload::kSkewHot:
      return "skew-hot";
    case Workload::kScanMix:
      return "scan-mix";
    case Workload::kIngestBatch:
      return "ingest-batch";
  }
  return "?";
}

inline bool parse_workload(const std::string& s, Workload& out) {
  for (Workload w : kAllWorkloads) {
    if (s == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

// Op kinds double as latency classes.
enum class OpKind { kGet, kPut, kDel, kRange, kWide, kBatch };

inline constexpr std::int64_t kNarrowWidth = 256;  // narrow RANGE width/limit
inline constexpr std::size_t kBatchEntries = 256;

struct BatchItem {
  std::int64_t key;
  bool erase;
};

struct Op {
  OpKind kind = OpKind::kGet;
  std::int64_t key = 0;  // GET/PUT/DEL key, RANGE/WIDE lo
  std::int64_t hi = 0;   // RANGE/WIDE hi (inclusive)
  std::vector<BatchItem> batch;
};

// The seeded half of the keyspace every layer is prefilled with, ascending.
inline std::vector<std::int64_t> prefill_keys(std::uint64_t seed,
                                              std::int64_t keyspace) {
  std::vector<std::int64_t> keys(static_cast<std::size_t>(keyspace));
  for (std::int64_t k = 0; k < keyspace; ++k) {
    keys[static_cast<std::size_t>(k)] = k;
  }
  Rng rng(seed ^ 0x9F1E5EEDull);
  const std::size_t half = keys.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    std::swap(keys[i], keys[i + rng.below(keys.size() - i)]);
  }
  keys.resize(half);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// One connection's op stream. Deterministic in (workload, seed, conn,
// keyspace); the wire run and the in-process ladder replay the same
// stream, so request ids (conn, seq) line up across layers.
class OpStream {
 public:
  OpStream(Workload w, std::uint64_t seed, unsigned conn,
           std::int64_t keyspace)
      : w_(w),
        conn_(conn),
        keyspace_(keyspace),
        rng_(seed * 0x100000001B3ull + static_cast<std::uint64_t>(w) * 31 +
             conn),
        zipf_(static_cast<std::uint64_t>(keyspace / 2), 0.99) {}

  // Width of the wide RANGE count: one shard of the 8-way equal split.
  std::int64_t wide_width() const { return keyspace_ / 8; }

  void next(Op& op) {
    const std::uint64_t r = rng_.below(100);
    switch (w_) {
      case Workload::kPointUniform:
        if (r < 90) {
          set(op, OpKind::kGet, any_key());
        } else {
          set(op, r < 95 ? OpKind::kPut : OpKind::kDel, own_key());
        }
        return;
      case Workload::kSkewHot:
        if (r < 50) {
          set(op, OpKind::kGet, hot_key(static_cast<unsigned>(rng_.below(2))));
        } else {
          set(op, r < 75 ? OpKind::kPut : OpKind::kDel, hot_key(conn_));
        }
        return;
      case Workload::kScanMix:
        if (r < 39) {
          range(op, OpKind::kRange, kNarrowWidth);
        } else if (r < 40) {
          range(op, OpKind::kWide, wide_width());
        } else {
          set(op, r < 70 ? OpKind::kPut : OpKind::kDel, own_key());
        }
        return;
      case Workload::kIngestBatch:
        if (conn_ == 1) {
          set(op, OpKind::kGet, any_key());
          return;
        }
        // 256 distinct own keys (ascending), each an insert or an erase.
        op.kind = OpKind::kBatch;
        op.batch.clear();
        while (op.batch.size() < kBatchEntries) {
          while (op.batch.size() < kBatchEntries) {
            op.batch.push_back({own_key(), false});
          }
          std::sort(op.batch.begin(), op.batch.end(),
                    [](const BatchItem& a, const BatchItem& b) {
                      return a.key < b.key;
                    });
          op.batch.erase(std::unique(op.batch.begin(), op.batch.end(),
                                     [](const BatchItem& a,
                                        const BatchItem& b) {
                                       return a.key == b.key;
                                     }),
                         op.batch.end());
        }
        for (BatchItem& b : op.batch) b.erase = rng_.below(2) == 1;
        return;
    }
  }

 private:
  static void set(Op& op, OpKind kind, std::int64_t key) {
    op.kind = kind;
    op.key = key;
    op.hi = key;
  }
  void range(Op& op, OpKind kind, std::int64_t width) {
    op.kind = kind;
    op.key = static_cast<std::int64_t>(
        rng_.below(static_cast<std::uint64_t>(keyspace_ - width + 1)));
    op.hi = op.key + width - 1;
  }
  std::int64_t any_key() {
    return static_cast<std::int64_t>(
        rng_.below(static_cast<std::uint64_t>(keyspace_)));
  }
  std::int64_t own_key() {
    return 2 * static_cast<std::int64_t>(rng_.below(
                   static_cast<std::uint64_t>(keyspace_ / 2))) +
           conn_;
  }
  // Zipf rank r (1 = hottest) maps to key 2(r-1) + parity: the hot set is
  // the low end of the keyspace, i.e. shard 0 of the initial split.
  std::int64_t hot_key(unsigned parity) {
    return 2 * static_cast<std::int64_t>(zipf_(rng_) - 1) + parity;
  }

  Workload w_;
  unsigned conn_;
  std::int64_t keyspace_;
  Rng rng_;
  Zipf zipf_;
};

}  // namespace pnbbench

// Output checking for pnbbench. Each connection owns the keys of its
// parity and keeps an exact model of them; every reply, at every layer,
// is checked against that model before the next op is sent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"

namespace pnbbench {

// Presence of one connection's own keys (k % 2 == conn).
class Model {
 public:
  Model(std::int64_t keyspace, unsigned conn,
        const std::vector<std::int64_t>& prefill)
      : conn_(conn), bits_(static_cast<std::size_t>(keyspace / 2), 0) {
    for (std::int64_t k : prefill) {
      if (owns(k)) set(k, true);
    }
  }

  bool owns(std::int64_t k) const {
    return static_cast<unsigned>(k & 1) == conn_;
  }
  bool has(std::int64_t k) const {
    return bits_[static_cast<std::size_t>(k >> 1)] != 0;
  }
  void set(std::int64_t k, bool present) {
    bits_[static_cast<std::size_t>(k >> 1)] = present ? 1 : 0;
  }

  // Own keys present in [lo, hi].
  std::size_t count(std::int64_t lo, std::int64_t hi) const {
    const std::int64_t first = lo + (owns(lo) ? 0 : 1);
    const std::int64_t last = hi - (owns(hi) ? 0 : 1);
    if (first > last) return 0;
    return static_cast<std::size_t>(
        std::count(bits_.begin() + (first >> 1), bits_.begin() + (last >> 1) + 1,
                   std::uint8_t{1}));
  }
  // Keys of the other parity in [lo, hi] (upper bound on what the other
  // connection can contribute to a count).
  std::int64_t other_slots(std::int64_t lo, std::int64_t hi) const {
    const std::int64_t first = lo + (owns(lo) ? 1 : 0);
    const std::int64_t last = hi - (owns(hi) ? 1 : 0);
    return first > last ? 0 : (last - first) / 2 + 1;
  }

 private:
  unsigned conn_;
  std::vector<std::uint8_t> bits_;
};

// What one op returned, in the same shape at every layer.
struct Reply {
  bool found = false;
  std::int64_t value = 0;
  bool changed = false;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  std::uint64_t count = 0;
  std::uint64_t applied = 0;
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
};

// Checks a successful reply and advances the model. Returns an empty
// string when the reply is right, else a description of the wrong answer.
inline std::string check(const Op& op, const Reply& r, Model& m) {
  char buf[192];
  const auto wrong = [&buf](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return std::string(buf);
  };
  const auto k = static_cast<long long>(op.key);
  switch (op.kind) {
    case OpKind::kGet:
      if (r.found && r.value != value_of(op.key)) {
        return wrong("GET %lld returned value %lld", k,
                     static_cast<long long>(r.value));
      }
      if (m.owns(op.key) && r.found != m.has(op.key)) {
        return wrong("GET %lld found=%d but the model says %d", k, r.found,
                     m.has(op.key));
      }
      return {};
    case OpKind::kPut:
      if (r.changed == m.has(op.key)) {
        return wrong("PUT %lld added=%d but the model had it=%d", k,
                     r.changed, m.has(op.key));
      }
      m.set(op.key, true);
      return {};
    case OpKind::kDel:
      if (r.changed != m.has(op.key)) {
        return wrong("DEL %lld removed=%d but the model had it=%d", k,
                     r.changed, m.has(op.key));
      }
      m.set(op.key, false);
      return {};
    case OpKind::kRange: {
      if (r.count != r.pairs.size()) {
        return wrong("RANGE [%lld,%lld] count %llu != %zu pairs", k,
                     static_cast<long long>(op.hi),
                     static_cast<unsigned long long>(r.count),
                     r.pairs.size());
      }
      std::int64_t prev = op.key - 1;
      std::size_t own = 0;
      for (const auto& [key, value] : r.pairs) {
        if (key <= prev || key > op.hi) {
          return wrong("RANGE [%lld,%lld] key %lld out of order or bounds", k,
                       static_cast<long long>(op.hi),
                       static_cast<long long>(key));
        }
        if (value != value_of(key)) {
          return wrong("RANGE key %lld has value %lld",
                       static_cast<long long>(key),
                       static_cast<long long>(value));
        }
        if (m.owns(key)) {
          if (!m.has(key)) {
            return wrong("RANGE returned own key %lld the model lacks",
                         static_cast<long long>(key));
          }
          ++own;
        }
        prev = key;
      }
      if (own != m.count(op.key, op.hi)) {
        return wrong("RANGE [%lld,%lld] has %zu own keys, the model %zu", k,
                     static_cast<long long>(op.hi), own,
                     m.count(op.key, op.hi));
      }
      return {};
    }
    case OpKind::kWide: {
      const std::size_t own = m.count(op.key, op.hi);
      const auto cap = own + static_cast<std::size_t>(
                                 m.other_slots(op.key, op.hi));
      if (r.count < own || r.count > cap) {
        return wrong("WIDE [%lld,%lld] count %llu outside [%zu, %zu]", k,
                     static_cast<long long>(op.hi),
                     static_cast<unsigned long long>(r.count), own, cap);
      }
      return {};
    }
    case OpKind::kBatch: {
      std::uint64_t ins = 0;
      std::uint64_t era = 0;
      for (const BatchItem& b : op.batch) {
        if (b.erase) {
          era += m.has(b.key) ? 1 : 0;
        } else {
          ins += m.has(b.key) ? 0 : 1;
        }
      }
      if (r.applied != op.batch.size() || r.inserted != ins ||
          r.erased != era) {
        return wrong("BATCH applied/inserted/erased %llu/%llu/%llu, model "
                     "predicts %zu/%llu/%llu",
                     static_cast<unsigned long long>(r.applied),
                     static_cast<unsigned long long>(r.inserted),
                     static_cast<unsigned long long>(r.erased),
                     op.batch.size(), static_cast<unsigned long long>(ins),
                     static_cast<unsigned long long>(era));
      }
      for (const BatchItem& b : op.batch) m.set(b.key, !b.erase);
      return {};
    }
  }
  return "unknown op kind";
}

}  // namespace pnbbench

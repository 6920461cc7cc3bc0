// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/random.h"

namespace pnbbst::test {

// Applies a deterministic random op stream to both `set` (the implementation
// under test, any OrderedSet) and a std::set model, checking
// every return value. Returns the final model.
template <class SetLike>
std::set<long> run_model_ops(SetLike& set, std::uint64_t seed, int ops,
                             long key_range) {
  std::set<long> model;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const long k =
        static_cast<long>(
            rng.next_bounded(static_cast<std::uint64_t>(key_range)));
    switch (rng.next_bounded(3)) {
      case 0: {
        const bool expect = model.insert(k).second;
        EXPECT_EQ(set.insert(k), expect) << "insert(" << k << ") op " << i;
        break;
      }
      case 1: {
        const bool expect = model.erase(k) > 0;
        EXPECT_EQ(set.erase(k), expect) << "erase(" << k << ") op " << i;
        break;
      }
      default: {
        const bool expect = model.count(k) > 0;
        EXPECT_EQ(set.contains(k), expect) << "contains(" << k << ") op " << i;
        break;
      }
    }
  }
  return model;
}

// Keys of `model` restricted to [lo, hi].
inline std::vector<long> model_range(const std::set<long>& model, long lo,
                                     long hi) {
  std::vector<long> out;
  for (auto it = model.lower_bound(lo); it != model.end() && *it <= hi; ++it) {
    out.push_back(*it);
  }
  return out;
}

inline bool is_sorted_unique(const std::vector<long>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

// True once executor `ex` has counted more than `before` tasks run by its
// pool workers. A worker counts a task after the task returns, which can
// be after the fan-out that submitted it has returned (the caller may have
// claimed every index itself), so this polls with a bound instead of
// reading once. Nothing is ever submitted by a sequential fan-out, so a
// count that must stay unchanged can be read directly.
template <class Executor>
bool pool_ran_tasks(const Executor& ex, std::uint64_t before) {
  for (int i = 0; i < 5000; ++i) {
    if (ex.tasks_executed() > before) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

}  // namespace pnbbst::test

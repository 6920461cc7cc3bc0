// Cache-line geometry, padding helpers and striped counters.
//
// Concurrent counters and per-thread records are padded to a cache line to
// avoid false sharing; the tree nodes themselves are *not* padded (they are
// small and allocation-dominated), matching the paper's memory layout.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace pnbbst {

// Fixed at 64 (the common x86-64/aarch64 value) rather than
// std::hardware_destructive_interference_size, whose value shifts with
// -mtune and would silently change struct layouts across builds.
inline constexpr std::size_t kCacheLine = 64;

// Wraps a value in a full cache line so adjacent instances never share one.
template <class T>
struct alignas(kCacheLine) CachePadded {
  T value{};

  CachePadded() = default;
  explicit CachePadded(const T& v) : value(v) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }

 private:
  // Pad up to a full line even when T is smaller; alignas handles the rest.
  char pad_[kCacheLine > sizeof(T) ? kCacheLine - sizeof(T) : 1] = {};
};

// N monotone counters on cacheline-striped cells: each thread bumps its
// own stripe (the N counters of a stripe share its lines), so concurrent
// increments from different threads do not bounce a line; value(i) sums
// counter i over the stripes at read time. The tree op-stats policy, the
// registry's counters and the server's request counters all use it.
template <std::size_t N>
class StripedCounters {
 public:
  static constexpr std::size_t kStripes = 16;

  void add(std::size_t i, std::uint64_t n = 1) noexcept {
    cells_[this_thread_stripe()].value[i].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value(std::size_t i) const noexcept {
    std::uint64_t total = 0;
    for (const auto& stripe : cells_) {
      total += stripe.value[i].load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // Threads take stripes round-robin on first use, so the first kStripes
  // threads to bump never share one.
  static std::size_t this_thread_stripe() noexcept {
    static std::atomic<std::size_t> next{0};
    static thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  CachePadded<std::array<std::atomic<std::uint64_t>, N>> cells_[kStripes];
};

}  // namespace pnbbst

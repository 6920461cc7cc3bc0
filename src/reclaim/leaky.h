// LeakyReclaimer — the "no reclamation" policy.
//
// retire() only counts; nothing is freed until process exit. This mirrors
// the common research-artifact setup (e.g. setbench runs with reclamation
// disabled) and serves as the baseline in the reclamation ablation
// (bench/tab6_reclamation).
#pragma once

#include <atomic>
#include <cstdint>

// Leaking is this policy's documented behaviour, not a bug: tell
// LeakSanitizer so ASan runs of the leaky-policy tests stay green while
// real leaks (an epoch-policy object that never gets freed) still fail.
#if defined(__SANITIZE_ADDRESS__)
#define PNBBST_LSAN_AVAILABLE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PNBBST_LSAN_AVAILABLE 1
#endif
#endif
#if defined(PNBBST_LSAN_AVAILABLE)
#include <sanitizer/lsan_interface.h>
#endif

namespace pnbbst {

class LeakyReclaimer {
 public:
  class Guard {
   public:
    Guard() = default;
    // The no-op destructor is deliberately user-provided: a trivially
    // destructible guard trips -Wunused-but-set-variable at every
    // `auto guard = reclaimer_->pin();` site.
    ~Guard() {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard(Guard&&) noexcept = default;
    Guard& operator=(Guard&&) noexcept = default;
  };

  Guard pin() noexcept { return Guard{}; }

  void retire(void* ptr, void (*/*deleter*/)(void*)) noexcept {
#if defined(PNBBST_LSAN_AVAILABLE)
    __lsan_ignore_object(ptr);
#else
    (void)ptr;
#endif
    retired_.fetch_add(1, std::memory_order_relaxed);
  }

  void retire_shared(void* ptr, void (*deleter)(void*)) noexcept {
    retire(ptr, deleter);
  }

  // Nothing is ever freed, so there is nothing to collect.
  void collect() noexcept {}

  std::uint64_t retired_count() const noexcept {
    return retired_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_count() const noexcept { return 0; }
  std::uint64_t pending_count() const noexcept { return retired_count(); }

  // Shared default instance (mirrors EpochReclaimer::shared()).
  static LeakyReclaimer& shared() {
    static LeakyReclaimer instance;
    return instance;
  }

 private:
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace pnbbst

// Ingest admission control: backpressure batches when reclamation lags.
//
// Retired-but-unreclaimed generations (old routing tables and replaced
// shard maps pinned by snapshot leases — src/lifecycle/) cost memory. A
// batch stream that outruns reclamation can grow that debt without bound:
// every reshard under churn retires another generation, and long-lived
// snapshots keep them all alive. AdmissionConfig caps the debt: when the
// owning container's LifetimeManager reports retired_bytes() above the
// watermark, batch admission backpressures until reclamation catches up —
// either by blocking (bounded by block_timeout) or by returning the batch
// unapplied with BatchResult::deferred set, the caller's cue to retry
// after dropping snapshots / easing the reshard cadence.
//
// Only batch admission is throttled. Point operations stay non-blocking:
// a single op's memory footprint is bounded, and throttling the lock-free
// paths would break the structure's progress guarantees for no gain.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

namespace pnbbst::ingest {

struct AdmissionConfig {
  enum class OverLimit {
    kBlock,  // wait (up to block_timeout) for the gauge to fall, then defer
    kDefer,  // return immediately with the batch counted as deferred
  };

  // Retired-generation bytes above which batch admission backpressures.
  // The default never throttles.
  std::size_t retired_bytes_watermark = std::numeric_limits<std::size_t>::max();
  OverLimit policy = OverLimit::kBlock;
  std::chrono::milliseconds block_timeout{1000};

  bool unlimited() const noexcept {
    return retired_bytes_watermark ==
           std::numeric_limits<std::size_t>::max();
  }
};

// How one admission decision resolved. The split matters operationally:
// kDeferred and kTimedOut both bounce the batch (BatchResult::deferred),
// but a deferral is the configured fast-shed path while a timeout means a
// blocking caller waited the full block_timeout and reclamation STILL had
// not caught up — sustained timeouts are the "raise the watermark or drop
// snapshots" signal. Containers aggregate these into per-container gauges
// (ShardedPnbMap::admission_stats) so shed rates are observable beyond the
// per-call BatchResult, e.g. on a serving layer's metrics page.
enum class AdmissionOutcome : std::uint8_t {
  kAdmitted,          // under the watermark; no wait
  kAdmittedAfterWait, // kBlock: waited, reclamation caught up in time
  kDeferred,          // kDefer: over the watermark, bounced immediately
  kTimedOut,          // kBlock: waited block_timeout, gauge never fell
};

constexpr bool admitted(AdmissionOutcome o) noexcept {
  return o == AdmissionOutcome::kAdmitted ||
         o == AdmissionOutcome::kAdmittedAfterWait;
}

// Admission gate shared by the batch surfaces. `gauge()` reads the
// container's retired-bytes gauge; `wait(limit, timeout)` blocks until the
// gauge is <= limit or the timeout passes
// (LifetimeManager::wait_retired_bytes_below has this shape).
template <class GaugeFn, class WaitFn>
AdmissionOutcome admit_batch_outcome(const AdmissionConfig& cfg,
                                     GaugeFn&& gauge, WaitFn&& wait) {
  if (cfg.unlimited() || gauge() <= cfg.retired_bytes_watermark) {
    return AdmissionOutcome::kAdmitted;
  }
  if (cfg.policy == AdmissionConfig::OverLimit::kDefer) {
    return AdmissionOutcome::kDeferred;
  }
  return wait(cfg.retired_bytes_watermark, cfg.block_timeout)
             ? AdmissionOutcome::kAdmittedAfterWait
             : AdmissionOutcome::kTimedOut;
}

// Boolean shim over admit_batch_outcome for callers that only need the
// go/no-go answer.
template <class GaugeFn, class WaitFn>
bool admit_batch(const AdmissionConfig& cfg, GaugeFn&& gauge, WaitFn&& wait) {
  return admitted(admit_batch_outcome(cfg, std::forward<GaugeFn>(gauge),
                                      std::forward<WaitFn>(wait)));
}

// Per-container admission gauge snapshot (monotone counters since
// construction). admitted counts both no-wait and after-wait admissions;
// blocked counts the kBlock waits that were actually entered (admitted
// after wait + timed out), so blocked - timed_out = waits that succeeded.
struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  std::uint64_t deferred = 0;
  std::uint64_t timed_out = 0;

  std::uint64_t shed() const noexcept { return deferred + timed_out; }
};

}  // namespace pnbbst::ingest

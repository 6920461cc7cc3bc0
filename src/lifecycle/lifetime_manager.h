// Snapshot-lease lifecycle: automatic reclamation of retired generations.
//
// The paper's persistence mechanism keeps old versions reachable so scans
// at phase s stay answerable; the sharded front-end adds a second kind of
// "old version": retired routing tables and replaced shard maps after a
// reshard cutover. This header makes their reclamation automatic by making
// references first-class:
//
//   SnapshotLease    RAII handle held by every composite ShardedPnbMap
//                    Snapshot. Registers with the owning container's
//                    LifetimeManager for the snapshot's lifetime. Tree and
//                    map snapshots take none: nothing in a single tree
//                    retires a generation, so their epoch pin suffices.
//   LifetimeManager  per-container registry of *generations*. A reshard
//                    cutover closes the current generation, attaching
//                    the resources the cutover retired (old tables,
//                    replaced maps). A closed generation's resources are
//                    reclaimed automatically when every lease acquired in
//                    that generation OR ANY OLDER one has been released.
//
// Two-layer reclamation (leases gate retirement, epochs gate freeing)
// -------------------------------------------------------------------
// Leases are held only by snapshot handles. In-flight point operations do
// NOT take leases (that would put a shared RMW pair on every lookup);
// instead they hold an epoch pin (reclaim/epoch.h) across their table
// load. The manager therefore reclaims in two steps:
//
//   1. when the last covering lease drops, the generation's resources are
//      handed to the epoch reclaimer (this is when the retired_bytes /
//      retired_objects gauges fall — "reclaimed" for batch shedding);
//   2. the reclaimer frees them after its grace period, which covers any
//      operation that was pinned while it could still reach the resource.
//
// Why ordered (oldest-first) draining: a lease can load a table that was
// published after its acquire (a cutover may land between the two), so a
// lease on generation g can reach resources that retire at g+1 or later.
// Gen g's resources are therefore only safe once every lease with
// generation <= g is gone. The manager frees generations strictly
// oldest-first; a middle generation hitting zero leases just waits for the
// generations before it.
//
// Lease acquire is lock-free (one fetch_add + a seq_cst recheck of the
// current-generation pointer); release is a fetch_sub, taking the short
// internal mutex only when it drops a closed generation to zero. The
// mutex also serializes retire_generation() callers and the oldest-first
// reclaim walk. Generation records themselves are retired through the
// epoch reclaimer because a concurrent acquirer can still bounce off a
// record after it was reclaimed (it re-checks and retries under its pin).
//
// The seq_cst recheck makes acquire race-free against close: if the
// acquirer's re-read of current still returns g, the closer's store of
// the next generation is later in the seq_cst total order, so the
// closer's subsequent read of g's lease count must observe the acquire.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "reclaim/reclaimer.h"

namespace pnbbst::lifecycle {

// One retired object handed to a generation at close: type-erased pointer
// plus deleter (freed through the epoch reclaimer), a byte estimate for
// the shed-watermark gauge, and whether it counts as a primary object
// (a shard map) in retired_objects() — tables and auxiliary state do not.
struct RetiredResource {
  void* ptr = nullptr;
  void (*deleter)(void*) = nullptr;
  std::size_t bytes = 0;
  bool primary = false;
};

template <class R>
  requires Reclaimer<R>
class LifetimeManager;

// RAII lease on one generation of a LifetimeManager. Move-only; an empty
// (default-constructed or moved-from) lease is inert.
template <class R>
  requires Reclaimer<R>
class SnapshotLease {
 public:
  SnapshotLease() noexcept = default;
  SnapshotLease(const SnapshotLease&) = delete;
  SnapshotLease& operator=(const SnapshotLease&) = delete;
  SnapshotLease(SnapshotLease&& o) noexcept : mgr_(o.mgr_), gen_(o.gen_) {
    o.mgr_ = nullptr;
    o.gen_ = nullptr;
  }
  SnapshotLease& operator=(SnapshotLease&& o) noexcept {
    if (this != &o) {
      release();
      mgr_ = o.mgr_;
      gen_ = o.gen_;
      o.mgr_ = nullptr;
      o.gen_ = nullptr;
    }
    return *this;
  }
  ~SnapshotLease() { release(); }

  bool active() const noexcept { return mgr_ != nullptr; }

  // Generation number the lease pins (0 before the first cutover).
  std::uint64_t generation() const noexcept;

  void release() noexcept;

 private:
  friend class LifetimeManager<R>;
  using Gen = typename LifetimeManager<R>::Gen;
  SnapshotLease(LifetimeManager<R>* mgr, Gen* gen) noexcept
      : mgr_(mgr), gen_(gen) {}

  LifetimeManager<R>* mgr_ = nullptr;
  Gen* gen_ = nullptr;
};

template <class R>
  requires Reclaimer<R>
class LifetimeManager {
 public:
  using Lease = SnapshotLease<R>;

  explicit LifetimeManager(R& reclaimer) : reclaimer_(&reclaimer) {
    auto* g = new Gen;
    oldest_ = g;
    current_.store(g, std::memory_order_release);
  }

  LifetimeManager(const LifetimeManager&) = delete;
  LifetimeManager& operator=(const LifetimeManager&) = delete;

  // Destruction requires quiescence: no live leases, no concurrent calls.
  // Remaining resources are freed directly (not via the reclaimer) — at
  // this point nothing can reach them.
  ~LifetimeManager() {
    Gen* g = oldest_;
    while (g != nullptr) {
      for (const RetiredResource& r : g->retired) r.deleter(r.ptr);
      Gen* next = g->next;
      delete g;
      g = next;
    }
  }

  // Lock-free lease on the current generation. Self-pins the epoch
  // reclaimer: a concurrent close can reclaim the generation record we
  // bounce off, and the pin (taken before the record could be retired)
  // keeps it readable while we back out and retry.
  Lease acquire() {
    auto pin = reclaimer_->pin();
    Gen* g = current_.load(std::memory_order_seq_cst);
    for (;;) {
      g->leases.fetch_add(1, std::memory_order_seq_cst);
      Gen* cur = current_.load(std::memory_order_seq_cst);
      if (cur == g) break;
      // Lost the race with a close: back out (possibly completing the
      // drained generation's reclamation) and retry on the new current.
      drop_lease(g);
      g = cur;
    }
    active_leases_.fetch_add(1, std::memory_order_relaxed);
    obs::trace_event(obs::TraceKind::kLeaseOpen, g->id);
    return Lease(this, g);
  }

  // Closes the current generation, attaching the resources a cutover just
  // retired, and opens a fresh one. Reclaims any generations that are
  // already fully drained. Callers may serialize externally (reshard does)
  // but the internal mutex makes this safe regardless.
  void retire_generation(std::vector<RetiredResource> resources) {
    std::lock_guard<std::mutex> lock(mutex_);
    Gen* g = current_.load(std::memory_order_relaxed);
    g->retired = std::move(resources);
    for (const RetiredResource& r : g->retired) {
      retired_bytes_.fetch_add(r.bytes, std::memory_order_relaxed);
      retired_objects_.fetch_add(r.primary ? 1 : 0,
                                 std::memory_order_relaxed);
    }
    auto* fresh = new Gen;
    fresh->id = g->id + 1;
    g->next = fresh;
    current_.store(fresh, std::memory_order_seq_cst);
    // seq_cst pairs with drop_lease: between this store + our lease read
    // below and a dropper's fetch_sub + closed read, at least one side
    // must observe the other, so a generation draining concurrently with
    // its close is reclaimed by someone (Dekker-style argument).
    g->closed.store(true, std::memory_order_seq_cst);
    reclaim_drained_locked();
  }

  // --- Gauges (batch shedding & introspection) -----------------------------

  // Bytes held by retired-but-not-yet-reclaimed generations. Falls when
  // the last covering lease drops (hand-off to the epoch reclaimer), not
  // when the memory is finally freed — the gauge measures what leases are
  // still holding hostage, which is what batch shedding watches.
  std::size_t retired_bytes() const noexcept {
    return retired_bytes_.load(std::memory_order_acquire);
  }

  // Primary retired objects (shard maps) not yet reclaimed.
  std::size_t retired_objects() const noexcept {
    return retired_objects_.load(std::memory_order_acquire);
  }

  std::uint64_t active_leases() const noexcept {
    return active_leases_.load(std::memory_order_acquire);
  }

  // Generation number leases acquired right now would pin.
  std::uint64_t current_generation() const noexcept {
    return current_.load(std::memory_order_acquire)->id;
  }

 private:
  friend class SnapshotLease<R>;

  // One generation: a lease count, plus the resources retired by the
  // cutover that closed it. Immutable links; `retired` is written once at
  // close (under the mutex) and read by the reclaim walk (same mutex).
  struct Gen {
    std::atomic<std::uint64_t> leases{0};
    std::atomic<bool> closed{false};
    Gen* next = nullptr;  // set before closed is published
    std::uint64_t id = 0;
    std::vector<RetiredResource> retired;
  };

  void drop_lease(Gen* g) {
    // Pin before the decrement: once our count is gone another thread may
    // reclaim g and retire its record, and the closed read below must stay
    // covered. Both accesses are seq_cst so a close racing the drop cannot
    // be missed by both sides (see retire_generation).
    auto pin = reclaimer_->pin();
    if (g->leases.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        g->closed.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mutex_);
      reclaim_drained_locked();
    }
  }

  // Oldest-first: hand every leading fully-drained closed generation's
  // resources to the epoch reclaimer and retire the generation record
  // itself (late acquirers may still bounce off it under their pins).
  // retire_shared: this (often resharding) thread may then go idle, and a
  // map copy must not wait in its limbo.
  void reclaim_drained_locked() {
    Gen* g = oldest_;
    while (g->closed.load(std::memory_order_acquire) &&
           g->leases.load(std::memory_order_seq_cst) == 0) {
      for (const RetiredResource& r : g->retired) {
        retired_bytes_.fetch_sub(r.bytes, std::memory_order_relaxed);
        retired_objects_.fetch_sub(r.primary ? 1 : 0,
                                   std::memory_order_relaxed);
        reclaimer_->retire_shared(r.ptr, r.deleter);
      }
      g->retired.clear();
      Gen* next = g->next;
      retire_object(*reclaimer_, g);
      g = next;
    }
    oldest_ = g;
  }

  R* reclaimer_;
  std::atomic<Gen*> current_{nullptr};
  Gen* oldest_ = nullptr;  // guarded by mutex_
  mutable std::mutex mutex_;
  std::atomic<std::size_t> retired_bytes_{0};
  std::atomic<std::size_t> retired_objects_{0};
  std::atomic<std::uint64_t> active_leases_{0};
};

template <class R>
  requires Reclaimer<R>
std::uint64_t SnapshotLease<R>::generation() const noexcept {
  return gen_ != nullptr ? gen_->id : 0;
}

template <class R>
  requires Reclaimer<R>
void SnapshotLease<R>::release() noexcept {
  if (mgr_ == nullptr) return;
  obs::trace_event(obs::TraceKind::kLeaseClose,
                   gen_ != nullptr ? gen_->id : 0);
  mgr_->active_leases_.fetch_sub(1, std::memory_order_relaxed);
  mgr_->drop_lease(gen_);
  mgr_ = nullptr;
  gen_ = nullptr;
}

}  // namespace pnbbst::lifecycle

// EpochReclaimer — epoch-based memory reclamation with a dynamic thread
// registry (DEBRA-style).
//
// Scheme
// ------
// A global epoch counter E advances only when every registered, pinned
// thread has announced epoch E (quiescent threads don't block). An object
// retired while the global epoch is e may be freed once the global epoch
// reaches e+2: the advance e -> e+1 proves no thread is still pinned in an
// epoch < e, and e+1 -> e+2 proves no thread pinned at e remains — so every
// pin that could have observed the object has been released.
//
// Each thread keeps three limbo buckets indexed by (epoch mod 3). Pushing
// into a bucket whose recorded epoch is older than the current epoch first
// drains it (those items are >= 3 epochs old, hence >= 2 epochs past
// retirement). Threads additionally drain eagerly whenever the global epoch
// has moved two past a bucket's epoch.
//
// Dynamic threads (the paper requires an unbounded, changing process set):
// thread records live in a lock-free intrusive registry and are recycled;
// a thread that exits migrates its un-freed limbo items to a mutex-guarded
// orphan list drained by whoever advances the epoch later.
//
// retire_shared() puts an item on that orphan list directly: for rare,
// large retirements by a thread that may then go idle (a reshard's old
// shard maps), which its own limbo would hold until its next scan.
// collect() frees such items on demand once no pin holds them.
//
// Memory ordering: the pin protocol needs a StoreLoad edge between
// announcing the epoch and the operation's subsequent shared-memory loads;
// we use an explicit seq_cst fence plus a re-read loop bounding staleness.
//
// Deleters and arena domains (DESIGN.md §11): the `void (*)(void*)`
// deleters run on the reclaimer's schedule — possibly on another thread,
// possibly during this reclaimer's own destructor drain. With
// mem::ArenaAlloc trees those deleters free slots back into a
// mem::ArenaDomain, so the domain must outlive every pending retirement:
// either use the immortal shared()/pooled() domains, or declare a scoped
// domain BEFORE a scoped EpochReclaimer (the reclaimer's destructor
// drains all limbo lists, so nothing frees into the domain afterwards).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/cacheline.h"

namespace pnbbst {

class EpochReclaimer {
 public:
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
  // Attempt an epoch advance every this many retires on a thread.
  static constexpr std::uint64_t kScanInterval = 64;

  EpochReclaimer() = default;
  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  ~EpochReclaimer() {
    // No threads may be using the reclaimer at destruction time. Free
    // everything still in limbo. Deleters can re-enter retire() (freeing a
    // node retires its Info); the flag routes those straight to the deleter
    // instead of local_rec(), whose ThreadRec this loop may already have
    // deleted.
    tearing_down_.store(true, std::memory_order_relaxed);
    ThreadRec* rec = head_.load(std::memory_order_acquire);
    while (rec != nullptr) {
      for (auto& bucket : rec->limbo) drain_bucket(bucket);
      ThreadRec* next = rec->next;
      delete rec;
      rec = next;
    }
    {
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      for (auto& o : orphans_) free_item(o.item);
      orphans_.clear();
    }
  }

  struct RetiredItem {
    void* ptr;
    void (*deleter)(void*);
  };

 private:
  struct OrphanItem {
    RetiredItem item;
    std::uint64_t epoch;
  };

  struct alignas(kCacheLine) ThreadRec {
    std::atomic<std::uint64_t> epoch{kQuiescent};
    std::atomic<bool> in_use{false};
    // Fields below are touched only by the owning thread.
    std::uint32_t pin_depth = 0;
    std::uint64_t retires_since_scan = 0;
    std::vector<RetiredItem> limbo[3];
    std::uint64_t limbo_epoch[3] = {0, 0, 0};
    ThreadRec* next = nullptr;  // immutable after registry insertion
    EpochReclaimer* owner = nullptr;
  };

 public:
  // RAII pin. Re-entrant: nested pins keep the outermost epoch (safe,
  // conservative). Movable so operations can return guards.
  class Guard {
   public:
    Guard() noexcept : rec_(nullptr) {}
    explicit Guard(ThreadRec* rec) noexcept : rec_(rec) {}
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard(Guard&& other) noexcept : rec_(other.rec_) { other.rec_ = nullptr; }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        release();
        rec_ = other.rec_;
        other.rec_ = nullptr;
      }
      return *this;
    }
    ~Guard() { release(); }

    bool active() const noexcept { return rec_ != nullptr; }

   private:
    void release() noexcept {
      if (rec_ == nullptr) return;
      if (--rec_->pin_depth == 0) {
        // Release: all loads/stores of the critical region complete before
        // the quiescent announcement becomes visible.
        rec_->epoch.store(kQuiescent, std::memory_order_release);
      }
      rec_ = nullptr;
    }
    ThreadRec* rec_;
  };

  Guard pin() {
    ThreadRec* rec = local_rec();
    if (rec->pin_depth++ == 0) {
      std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
      for (;;) {
        rec->epoch.store(g, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::uint64_t g2 =
            global_epoch_.load(std::memory_order_relaxed);
        if (g2 == g) break;
        g = g2;
      }
    }
    return Guard(rec);
  }

  void retire(void* ptr, void (*deleter)(void*)) {
    if (tearing_down_.load(std::memory_order_relaxed)) {
      // Re-entrant retire from the destructor's drain: nothing can observe
      // the object anymore, so free it on the spot.
      retired_total_.fetch_add(1, std::memory_order_relaxed);
      free_item(RetiredItem{ptr, deleter});
      return;
    }
    ThreadRec* rec = local_rec();
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    auto& bucket = rec->limbo[e % 3];
    if (rec->limbo_epoch[e % 3] != e) {
      // Bucket holds items from epoch e-3 (or older): >= 2 epochs past.
      drain_bucket(bucket);
      rec->limbo_epoch[e % 3] = e;
    }
    bucket.push_back(RetiredItem{ptr, deleter});
    retired_total_.fetch_add(1, std::memory_order_relaxed);

    if (++rec->retires_since_scan >= kScanInterval) {
      rec->retires_since_scan = 0;
      try_advance();
      drain_safe_buckets(rec);
      drain_orphans();
    }
  }

  // retire() onto the orphan list: any thread's periodic scan frees it
  // two epochs from now. Takes the orphan mutex — not for per-node use.
  void retire_shared(void* ptr, void (*deleter)(void*)) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      orphans_.push_back(OrphanItem{RetiredItem{ptr, deleter}, e});
    }
    retired_total_.fetch_add(1, std::memory_order_relaxed);
  }

  // Attempts to advance the global epoch by one. Fails (returns false) if
  // some pinned thread has not yet announced the current epoch.
  bool try_advance() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    for (ThreadRec* rec = head_.load(std::memory_order_acquire);
         rec != nullptr; rec = rec->next) {
      const std::uint64_t te = rec->epoch.load(std::memory_order_seq_cst);
      if (te != kQuiescent && te != e) return false;
    }
    std::uint64_t expected = e;
    global_epoch_.compare_exchange_strong(expected, e + 1,
                                          std::memory_order_seq_cst);
    return true;  // advanced (by us or a racing thread)
  }

  // Frees the shared orphans whose grace period has passed, after trying
  // to advance the epoch twice: retired memory that no pin holds goes now,
  // not at some thread's next periodic scan. Safe while threads are pinned
  // (they just hold the advance back).
  void collect() {
    try_advance();
    try_advance();
    drain_orphans();
  }

  // Frees everything that is reclaimable assuming *no thread is pinned*.
  // Intended for tests and benchmark teardown; asserts quiescence.
  void quiescent_flush() {
    for (ThreadRec* rec = head_.load(std::memory_order_acquire);
         rec != nullptr; rec = rec->next) {
      assert(rec->epoch.load(std::memory_order_seq_cst) == kQuiescent &&
             "quiescent_flush requires all threads unpinned");
    }
    // Freeing an object can retire another (a node's last Info reference,
    // for instance), possibly into a bucket drained earlier in the same
    // pass — iterate to a fixpoint.
    std::uint64_t before;
    do {
      before = pending_count();
      // Three advances guarantee every bucket is >= 2 epochs old.
      for (int i = 0; i < 3; ++i) try_advance();
      for (ThreadRec* rec = head_.load(std::memory_order_acquire);
           rec != nullptr; rec = rec->next) {
        for (auto& bucket : rec->limbo) drain_bucket(bucket);
      }
      {
        std::lock_guard<std::mutex> lock(orphan_mutex_);
        auto orphans = std::move(orphans_);
        orphans_.clear();
        for (auto& o : orphans) free_item(o.item);
      }
    } while (pending_count() != 0 && pending_count() != before);
  }

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_relaxed);
  }
  std::uint64_t retired_count() const noexcept {
    return retired_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_count() const noexcept {
    return freed_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t pending_count() const noexcept {
    return retired_count() - freed_count();
  }
  std::size_t registered_threads() const noexcept {
    std::size_t n = 0;
    for (ThreadRec* rec = head_.load(std::memory_order_acquire);
         rec != nullptr; rec = rec->next) {
      ++n;
    }
    return n;
  }

  // Process-wide default domain shared by all data-structure instances.
  static EpochReclaimer& shared() {
    static EpochReclaimer instance;
    return instance;
  }

 private:
  // Handle installed in a thread_local slot; returns the record to the
  // registry (and its limbo to the orphan list) on thread exit. The
  // weak_ptr token makes the destructor a no-op if the domain was already
  // destroyed (possible for the main thread at program exit when tests use
  // stack-local domains).
  struct LocalHandle {
    ThreadRec* rec = nullptr;
    std::weak_ptr<char> alive;

    LocalHandle() = default;
    LocalHandle(const LocalHandle&) = delete;
    LocalHandle& operator=(const LocalHandle&) = delete;
    LocalHandle(LocalHandle&& other) noexcept
        : rec(other.rec), alive(std::move(other.alive)) {
      other.rec = nullptr;
    }
    LocalHandle& operator=(LocalHandle&& other) noexcept {
      if (this != &other) {
        rec = other.rec;
        alive = std::move(other.alive);
        other.rec = nullptr;
      }
      return *this;
    }

    ~LocalHandle() {
      if (rec == nullptr) return;
      auto token = alive.lock();
      if (!token) return;  // domain already gone; its dtor freed the limbo
      EpochReclaimer* owner = rec->owner;
      {
        std::lock_guard<std::mutex> lock(owner->orphan_mutex_);
        for (auto& bucket : rec->limbo) {
          const std::uint64_t be =
              &bucket == &rec->limbo[0]   ? rec->limbo_epoch[0]
              : &bucket == &rec->limbo[1] ? rec->limbo_epoch[1]
                                          : rec->limbo_epoch[2];
          for (auto& item : bucket) {
            owner->orphans_.push_back(OrphanItem{item, be});
          }
          bucket.clear();
        }
      }
      rec->epoch.store(kQuiescent, std::memory_order_release);
      rec->in_use.store(false, std::memory_order_release);
    }
  };

  ThreadRec* local_rec() {
    thread_local LocalHandle handle;
    // A single thread may use several EpochReclaimer instances (tests do);
    // keep one handle per (thread, instance) in a tiny thread-local map.
    thread_local std::vector<std::pair<EpochReclaimer*, LocalHandle>> extra;
    if (handle.rec != nullptr && !handle.alive.expired() &&
        handle.rec->owner == this) {
      return handle.rec;
    }
    if (handle.rec == nullptr || handle.alive.expired()) {
      handle.rec = acquire_rec();
      handle.alive = alive_;
      return handle.rec;
    }
    for (auto& [owner, h] : extra) {
      if (owner == this && !h.alive.expired()) return h.rec;
    }
    extra.emplace_back();
    extra.back().first = this;
    extra.back().second.rec = acquire_rec();
    extra.back().second.alive = alive_;
    return extra.back().second.rec;
  }

  ThreadRec* acquire_rec() {
    // Recycle a free record if possible.
    for (ThreadRec* rec = head_.load(std::memory_order_acquire);
         rec != nullptr; rec = rec->next) {
      bool expected = false;
      if (rec->in_use.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
        rec->pin_depth = 0;
        rec->retires_since_scan = 0;
        return rec;
      }
    }
    // Register a new one.
    auto* rec = new ThreadRec;
    rec->owner = this;
    rec->in_use.store(true, std::memory_order_relaxed);
    ThreadRec* old_head = head_.load(std::memory_order_relaxed);
    do {
      rec->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, rec,
                                          std::memory_order_acq_rel));
    return rec;
  }

  void drain_safe_buckets(ThreadRec* rec) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (int b = 0; b < 3; ++b) {
      if (!rec->limbo[b].empty() && rec->limbo_epoch[b] + 2 <= e) {
        drain_bucket(rec->limbo[b]);
      }
    }
  }

  // Frees the expired orphans outside the lock: a deleter may re-enter
  // retire() (and from there this function) on the same thread.
  void drain_orphans() {
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    std::vector<RetiredItem> expired;
    {
      std::unique_lock<std::mutex> lock(orphan_mutex_, std::try_to_lock);
      if (!lock.owns_lock()) return;
      std::size_t keep = 0;
      for (std::size_t i = 0; i < orphans_.size(); ++i) {
        if (orphans_[i].epoch + 2 <= e) {
          expired.push_back(orphans_[i].item);
        } else {
          orphans_[keep++] = orphans_[i];
        }
      }
      orphans_.resize(keep);
    }
    for (const RetiredItem& item : expired) free_item(item);
  }

  // Deleters may themselves call retire() (freeing a node drops the last
  // reference on its Info, which retires the Info), re-entering this code on
  // the same thread. Swapping the bucket out first makes the drain safe
  // against such re-entrant pushes and drains.
  void drain_bucket(std::vector<RetiredItem>& bucket) {
    std::vector<RetiredItem> items;
    items.swap(bucket);
    for (auto& item : items) free_item(item);
  }

  void free_item(const RetiredItem& item) {
    item.deleter(item.ptr);
    freed_total_.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<ThreadRec*> head_{nullptr};
  std::atomic<bool> tearing_down_{false};
  alignas(kCacheLine) std::atomic<std::uint64_t> global_epoch_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> retired_total_{0};
  std::atomic<std::uint64_t> freed_total_{0};
  std::mutex orphan_mutex_;
  std::vector<OrphanItem> orphans_;
  // Liveness token observed by thread-local handles (see LocalHandle).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace pnbbst

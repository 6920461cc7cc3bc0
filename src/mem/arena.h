// Arena domains: slab-backed, size-classed slot allocators for nodes and
// Info records (DESIGN.md §11).
//
// Motivation: every insert/erase used to heap-allocate fresh nodes and
// Info records, landing each on a random cacheline. The paper's helping
// protocol is one CAS word per node; the win evaporates when following
// that word is a cache miss. An ArenaDomain hands out slots carved from
// 64 KiB slabs, so records allocated together are cache-adjacent, frees
// recycle slots through a freelist instead of the global heap, and bulk
// builds can reserve contiguous runs per subtree.
//
// Layout invariants:
//   * every slab is kSlabBytes large AND kSlabBytes aligned, so the slab
//     header is recoverable from any slot pointer with one mask — this is
//     what makes `free_slot` context-free (usable from the epoch
//     reclaimer's `void(*)(void*)` deleters);
//   * slot sizes are rounded up to multiples of kCacheLine and the header
//     occupies exactly one line, so every slot is cacheline-aligned (the
//     padded Info records require alignof == kCacheLine).
//
// Concurrency: the domain is internally sharded (kShards bump/freelist
// states per size class, each under its own mutex; threads hash to a
// shard). A mutex on this path is deliberate — the allocator is not the
// lock-free protocol, and a short uncontended lock is cheaper to reason
// about (and TSan-clean) than a racy per-thread cache whose lifetime
// outlives the domain.
//
// Ownership contract (the one rule callers must respect): a domain must
// outlive every allocation carved from it AND every pending epoch
// retirement whose deleter frees into it. Two supported patterns:
//   1. process-lifetime domains — `shared()` and `pooled(i)` are immortal
//      (never destroyed), safe with EpochReclaimer::shared();
//   2. a scoped domain declared BEFORE a scoped EpochReclaimer: the
//      reclaimer's destructor drains all limbo lists, so by the time the
//      domain is destroyed nothing can free into it.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <thread>

#include "util/cacheline.h"

namespace pnbbst::mem {

// One value per gauge, sampled with `ArenaDomain::stats()`. Plain struct
// so bench tables can diff before/after snapshots.
struct AllocStats {
  std::uint64_t slot_allocs = 0;    // slots handed out
  std::uint64_t slot_frees = 0;     // slots returned
  std::uint64_t freelist_hits = 0;  // allocs served by a recycled slot
  std::uint64_t slab_refills = 0;   // fresh slabs carved
  std::uint64_t slab_bytes = 0;     // total bytes in live slabs

  std::uint64_t slots_live() const noexcept {
    return slot_allocs - slot_frees;
  }
};

class ArenaDomain {
 public:
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;
  // Largest slot a domain serves; bigger requests are a caller bug.
  static constexpr std::size_t kMaxSlotBytes = 8 * kCacheLine;
  static constexpr std::size_t kShards = 8;
  static constexpr std::uint64_t kMagic = 0x504e42'41524e41ull;  // "PNBARNA"

  ArenaDomain() = default;
  ArenaDomain(const ArenaDomain&) = delete;
  ArenaDomain& operator=(const ArenaDomain&) = delete;

  ~ArenaDomain() {
    for (auto& shard : shards_) {
      for (auto& st : shard.classes) {
        Slab* s = st.slabs;
        while (s != nullptr) {
          Slab* next = s->next;
          s->magic = 0;
          std::free(s);
          s = next;
        }
      }
    }
  }

  // Process-lifetime default domain. Intentionally immortal (never
  // destroyed): epoch deleters may free into it during static teardown,
  // after function-local statics with destructors are already gone.
  static ArenaDomain& shared() {
    static ArenaDomain* d = new ArenaDomain();
    return *d;
  }

  // Immortal per-shard domains for sharded containers: shard i of a
  // ShardedPnbMap routes to pooled(i), so shards allocate from disjoint
  // slab sets without tying domain lifetime to the (epoch-retired) shard.
  static constexpr std::size_t kPooledDomains = 8;
  static ArenaDomain& pooled(std::size_t i) {
    static ArenaDomain* pool[kPooledDomains] = {
        new ArenaDomain(), new ArenaDomain(), new ArenaDomain(),
        new ArenaDomain(), new ArenaDomain(), new ArenaDomain(),
        new ArenaDomain(), new ArenaDomain()};
    return *pool[i % kPooledDomains];
  }

  // Bytes of the slot alloc_slot(bytes) hands out: `bytes` rounded up to
  // whole cache lines.
  static constexpr std::size_t slot_bytes(std::size_t bytes) noexcept {
    return (class_index(bytes) + 1) * kCacheLine;
  }

  // Carves (or recycles) one slot of at least `bytes` bytes, cacheline
  // aligned. Thread-safe; never returns nullptr (aborts on OOM like new).
  void* alloc_slot(std::size_t bytes) {
    const std::size_t cls = class_index(bytes);
    const std::size_t shard = this_thread_shard();
    ClassState& st = shards_[shard].classes[cls];
    std::lock_guard<std::mutex> lock(st.mu);
    slot_allocs_.fetch_add(1, std::memory_order_relaxed);
    if (st.freelist != nullptr) {
      void* slot = st.freelist;
      st.freelist = *static_cast<void**>(slot);
      freelist_hits_.fetch_add(1, std::memory_order_relaxed);
      return slot;
    }
    const std::size_t slot_bytes = (cls + 1) * kCacheLine;
    if (st.bump + slot_bytes > st.bump_end) refill(st, shard, cls);
    void* slot = st.bump;
    st.bump += slot_bytes;
    return slot;
  }

  // Context-free release: recovers the owning slab (and through it the
  // owning domain and size class) by masking the slot address down to the
  // slab boundary. Safe to call from any thread, including epoch-deleter
  // threads that never touched this domain.
  static void free_slot(void* p) noexcept {
    Slab* slab = owning_slab(p);
    assert(slab->magic == kMagic && "free_slot on a non-arena pointer");
    ArenaDomain* dom = slab->domain;
    ClassState& st = dom->shards_[slab->shard].classes[slab->cls];
    std::lock_guard<std::mutex> lock(st.mu);
    *static_cast<void**>(p) = st.freelist;
    st.freelist = p;
    dom->slot_frees_.fetch_add(1, std::memory_order_relaxed);
  }

  // Bulk-build hook: make the calling thread's bump region for this size
  // class able to serve `n` slots contiguously, starting a fresh slab if
  // the current one cannot. Runs longer than one slab are served across
  // slab boundaries (contiguity is best-effort beyond kSlabBytes).
  void reserve_run(std::size_t n, std::size_t bytes) {
    const std::size_t cls = class_index(bytes);
    const std::size_t slot_bytes = (cls + 1) * kCacheLine;
    const std::size_t want = n * slot_bytes;
    const std::size_t shard = this_thread_shard();
    ClassState& st = shards_[shard].classes[cls];
    std::lock_guard<std::mutex> lock(st.mu);
    const std::size_t room =
        static_cast<std::size_t>(st.bump_end - st.bump);
    if (room < want && room < kSlabBytes - kCacheLine) {
      refill(st, shard, cls);
    }
  }

  AllocStats stats() const noexcept {
    AllocStats out;
    out.slot_allocs = slot_allocs_.load(std::memory_order_relaxed);
    out.slot_frees = slot_frees_.load(std::memory_order_relaxed);
    out.freelist_hits = freelist_hits_.load(std::memory_order_relaxed);
    out.slab_refills = slab_refills_.load(std::memory_order_relaxed);
    out.slab_bytes = slab_bytes_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  // First cacheline of every slab; everything after it is slot storage.
  struct Slab {
    std::uint64_t magic;
    ArenaDomain* domain;
    Slab* next;
    std::uint32_t shard;
    std::uint32_t cls;
    char pad[kCacheLine - sizeof(std::uint64_t) - 2 * sizeof(void*) -
             2 * sizeof(std::uint32_t)];
  };
  static_assert(sizeof(Slab) == kCacheLine, "header must be one line");

  struct ClassState {
    std::mutex mu;
    char* bump = nullptr;      // next free byte in the current slab
    char* bump_end = nullptr;  // one past the current slab
    void* freelist = nullptr;  // intrusive LIFO of recycled slots
    Slab* slabs = nullptr;     // every slab this state ever carved
  };

  static constexpr std::size_t kClasses = kMaxSlotBytes / kCacheLine;

  // Shards are padded so two threads refilling different shards never
  // bounce the same line holding the mutexes.
  struct alignas(kCacheLine) Shard {
    ClassState classes[kClasses];
  };

  static constexpr std::size_t class_index(std::size_t bytes) noexcept {
    assert(bytes > 0 && bytes <= kMaxSlotBytes);
    return (bytes + kCacheLine - 1) / kCacheLine - 1;
  }

  static Slab* owning_slab(void* p) noexcept {
    return reinterpret_cast<Slab*>(reinterpret_cast<std::uintptr_t>(p) &
                                   ~(kSlabBytes - 1));
  }

  static std::size_t this_thread_shard() noexcept {
    static thread_local const std::size_t shard =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
    return shard;
  }

  // Carves a fresh slab for (shard, cls); caller holds st.mu.
  void refill(ClassState& st, std::size_t shard, std::size_t cls) {
    void* raw = std::aligned_alloc(kSlabBytes, kSlabBytes);
    if (raw == nullptr) std::abort();
    Slab* slab = static_cast<Slab*>(raw);
    slab->magic = kMagic;
    slab->domain = this;
    slab->next = st.slabs;
    slab->shard = static_cast<std::uint32_t>(shard);
    slab->cls = static_cast<std::uint32_t>(cls);
    st.slabs = slab;
    st.bump = static_cast<char*>(raw) + kCacheLine;
    st.bump_end = static_cast<char*>(raw) + kSlabBytes;
    slab_refills_.fetch_add(1, std::memory_order_relaxed);
    slab_bytes_.fetch_add(kSlabBytes, std::memory_order_relaxed);
  }

  Shard shards_[kShards];

  std::atomic<std::uint64_t> slot_allocs_{0};
  std::atomic<std::uint64_t> slot_frees_{0};
  std::atomic<std::uint64_t> freelist_hits_{0};
  std::atomic<std::uint64_t> slab_refills_{0};
  std::atomic<std::uint64_t> slab_bytes_{0};
};

}  // namespace pnbbst::mem

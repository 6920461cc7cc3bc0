// Allocator policies threaded through the tree templates (DESIGN.md §11).
//
// Every allocation-bearing container takes an `Alloc` template parameter:
//
//   PnbBst<Key, Compare, Reclaimer, Stats, Alloc = mem::HeapAlloc>
//
// with two policies. `HeapAlloc` (the default) is plain new/delete — the
// pre-arena behavior, kept as the baseline so differential suites can diff
// arena vs heap trees directly. `ArenaAlloc` carves slots from an
// ArenaDomain and returns them on destroy.
//
// Shape contract (what the trees rely on):
//   * `create<T>(args...)` is an instance member — an ArenaAlloc carries
//     which domain to carve from;
//   * `destroy<T>(p)` is STATIC and context-free — the epoch reclaimer's
//     deleters are bare `void(*)(void*)` thunks with no allocator handle,
//     so release must be recoverable from the pointer alone (ArenaAlloc
//     recovers the owning domain from the slab header; HeapAlloc is just
//     delete);
//   * `for_shard(i)` builds the allocator a sharded container should hand
//     shard i (HeapAlloc: all shards share the heap; ArenaAlloc: the
//     immortal pooled(i) domain, decoupling domain lifetime from the
//     epoch-retired shard object);
//   * `reserve_run<T>(n)` is the bulk-build hint: a no-op on the heap, a
//     contiguous-slab reservation on an arena;
//   * `slot_bytes<T>()` is what one T really occupies (sizeof on the heap,
//     the cache-line-rounded slot on an arena) — the unit of footprint
//     estimates, so callers never learn about slab classes.
#pragma once

#include <cstddef>
#include <utility>

#include "mem/arena.h"
#include "util/cacheline.h"

namespace pnbbst::mem {

// new/delete policy; the default and the differential baseline.
struct HeapAlloc {
  static constexpr bool kIsArena = false;
  static constexpr const char* kName = "heap";

  template <class T, class... Args>
  T* create(Args&&... args) const {
    return new T(std::forward<Args>(args)...);
  }

  template <class T>
  static void destroy(T* p) noexcept {
    delete p;
  }

  template <class T>
  void reserve_run(std::size_t) const noexcept {}

  template <class T>
  static constexpr std::size_t slot_bytes() noexcept {
    return sizeof(T);
  }

  static HeapAlloc for_shard(std::size_t) noexcept { return {}; }
};

// Slab/arena policy: slots from an ArenaDomain, recycled on destroy.
class ArenaAlloc {
 public:
  static constexpr bool kIsArena = true;
  static constexpr const char* kName = "arena";

  // Defaults to the immortal process-wide domain, so
  // `PnbBst<..., ArenaAlloc>` works with no ceremony.
  ArenaAlloc() noexcept : domain_(&ArenaDomain::shared()) {}
  explicit ArenaAlloc(ArenaDomain& domain) noexcept : domain_(&domain) {}

  template <class T, class... Args>
  T* create(Args&&... args) const {
    static_assert(alignof(T) <= kCacheLine,
                  "arena slots are cacheline-aligned at most");
    static_assert(sizeof(T) <= ArenaDomain::kMaxSlotBytes,
                  "record too large for an arena slot");
    void* slot = domain_->alloc_slot(sizeof(T));
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  // Context-free: the owning domain is recovered from the slab header, so
  // this is callable from epoch-deleter thunks long after the ArenaAlloc
  // instance (and even the tree) is gone. The DOMAIN must still be alive;
  // see the ownership contract in arena.h.
  template <class T>
  static void destroy(T* p) noexcept {
    p->~T();
    ArenaDomain::free_slot(p);
  }

  template <class T>
  void reserve_run(std::size_t n) const {
    domain_->reserve_run(n, sizeof(T));
  }

  template <class T>
  static constexpr std::size_t slot_bytes() noexcept {
    return ArenaDomain::slot_bytes(sizeof(T));
  }

  static ArenaAlloc for_shard(std::size_t i) noexcept {
    return ArenaAlloc(ArenaDomain::pooled(i));
  }

  ArenaDomain& domain() const noexcept { return *domain_; }

 private:
  ArenaDomain* domain_;
};

}  // namespace pnbbst::mem

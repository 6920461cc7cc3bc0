// ShardedPnbMap — a sharded front-end over per-shard PnbMaps.
//
// The Ellen-et-al.-style helping protocol underlying PNB-BST is
// disjoint-access parallel, so partitioning the key space across NumShards
// independent trees composes cleanly: point operations route to one shard
// and keep that shard's full guarantees (non-blocking updates, linearizable
// lookups); range queries take one wait-free snapshot per shard in the
// query's span and concatenate the per-shard results in shard order.
//
// The key→shard mapping is RangeSplitter<K>: a contiguous range partition
// of an integral keyspace [lo, hi). Its one invariant, which every merged
// scan relies on, is MONOTONE ROUTING: a <= b implies shard_of(a) <=
// shard_of(b). So shard i's keys all precede shard i+1's keys, a query
// touches only the shards overlapping its range (a narrow scan costs one
// snapshot, not NumShards), and the per-shard results, taken in ascending
// shard order, are already one sorted sequence.
//
// Routing table (live resharding support)
// ---------------------------------------
// The splitter and the shard pointers live together in one immutable
// `Table` published through a single atomic pointer. Every operation loads
// the table exactly once, so it always sees a *mutually consistent*
// (splitter, shards) pair — there is no window where a key routes with the
// new splitter into an old shard or vice versa. reshard() builds
// replacement maps offline (snapshot-scan → bulk_build) and cuts over by
// swapping that one pointer; it is the only cutover.
//
// Lifetime of retired generations: epoch pins only
// -------------------------------------------------
// Replaced tables and maps are NOT freed manually. At every cutover they
// go straight to the epoch reclaimer (retire_shared), which frees them
// once every pin that was active at the retire has been released. Every
// reader pins BEFORE it loads the table: point operations for their
// duration, every composite Snapshot (one-shot merged scans included) for
// the handle's lifetime. A reader's pin therefore predates the cutover's
// retire of whatever table it loaded, so the grace period waits for it.
// lifetime() keeps the gauges: retired_maps()/retired_bytes() rise at the
// cutover and fall when the reclaimer actually frees the replaced maps.
//
// Loss-free reshard contract
// --------------------------
//   * READS stay safe and table-consistent throughout: an operation runs
//     entirely against the table it loaded — either the pre-reshard or the
//     post-reshard world, never a mix — so a concurrent reader observes no
//     duplicated and no mis-routed keys. Memory stays valid via the epoch
//     pins above.
//   * WRITES racing a migration are NOT lost. A migration publishes an
//     intermediate table generation carrying a write-intent ledger; every
//     write accepted on a migrating shard during the migration window is
//     recorded as its one BatchOp (under a short per-shard ledger lock)
//     before it is applied to the pre-reshard world, and the recorded ops
//     are replayed IN ORDER into the replacement maps before the atomic
//     cutover. Writers that
//     arrive after the ledger closes re-route themselves to the new table.
//     Residual weakening, documented: during the window, writes on
//     migrating shards take that short ledger lock (the non-blocking
//     guarantee is relaxed for the window's duration, never outside it),
//     and two *racing* writes to the SAME key may resolve in recorded
//     order rather than the pre-reshard world's internal order — any
//     per-key single-writer discipline observes exact loss-freedom
//     (asserted by tests/test_reshard_concurrent.cpp).
//   * reshard() changes the routing function (reshard(splitter()) keeps it
//     and just rebuilds every shard balanced); the shard *count* is a
//     template parameter and fixed for the instance's lifetime.
//   * Snapshots taken before a cutover stay valid and keep answering from
//     the pre-reshard world (their pin holds the retired generation).
//   * reshards serialize on an internal mutex; they never block readers.
//
// Ingest admission (src/ingest/admission.h)
// -----------------------------------------
// apply_batch sheds: while retired_bytes() is above the shed watermark
// (pinned snapshots are holding too many retired generations alive), the
// batch returns unapplied with BatchResult::deferred set. Before shedding
// it asks the reclaimer to free what no pin holds any more (collect()),
// so a dropped snapshot reopens admission without waiting on unrelated
// traffic. It never waits. Point operations are never throttled.
//
// Cross-shard consistency contract
// --------------------------------
// Each shard is an independent PNB-BST with its own phase counter, so there
// is no global linearization point for a multi-shard operation:
//
//   * Point ops (insert/erase/contains/get/get_or) touch exactly one shard
//     and are linearizable exactly as PnbMap's are.
//   * A merged scan (range_scan / range_count / size / snapshot) takes its
//     per-shard snapshots in ascending shard order. Every snapshot is
//     wait-free and linearizable *within its shard*, and is taken between
//     the merged operation's invocation and response. Since every key is
//     owned by exactly one shard, each key's reported presence/value is its
//     true state at that shard's linearization point — i.e. the merged
//     result is a union of per-shard linearizable views ("per-key atomic",
//     a regular-register-style guarantee). What is NOT guaranteed is a
//     single point in time at which the whole merged result was the state
//     of the map: an update sequence spanning two shards during the scan
//     can be observed half-applied. Scans whose splitter span is a single
//     shard (always true for point-like ranges) ARE fully linearizable.
//   * assign is erase then insert, with PnbMap::assign's documented
//     non-atomicity on top of this.
//
// The per-shard wait-freedom bound is preserved: a merged scan performs
// NumShards wait-free scans plus a bounded concatenation, so it cannot be
// starved by concurrent updates.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/one_shot_queries.h"
#include "core/pnb_map.h"
#include "ingest/admission.h"
#include "ingest/batch_apply.h"
#include "obs/trace.h"
#include "scan/parallel_scan.h"
#include "shard/key_sampler.h"
#include "util/backoff.h"
#include "util/cacheline.h"

namespace pnbbst {

// Contiguous range partition of an integral keyspace [lo, hi). Keys outside
// the configured bounds clamp to the edge shards, so the splitter is total
// (a default-constructed {0, 0} sends every key to the two edge shards).
//
// Two modes share the type (reshard() swaps one splitter for another, so
// adaptive boundaries cannot live in a second class):
//  - equal-width (cuts empty): shard i owns [lo + i*width, lo + (i+1)*width)
//  - explicit boundaries (cuts = sorted interior cut points, size < nshards):
//    shard i owns [cuts[i-1], cuts[i]), with lo/hi still clamping the edges.
//    Fewer than nshards-1 cuts leaves the top shards empty — legal, the
//    splitter stays total.
// Ownership is contiguous and ascending in both modes: shard_of is monotone
// in the key, so shard_span narrowing is exact and merged scans are
// in-order concatenations.
template <class K>
struct RangeSplitter {
  static_assert(std::is_integral_v<K>, "RangeSplitter needs an integral key");

  K lo{};
  K hi{};  // exclusive
  std::vector<K> cuts{};  // sorted interior boundaries; empty = equal-width

  // Explicit-boundary factory: dedups/sorts/clamps `boundaries` into (lo,hi)
  // and keeps at most nshards-1 of them. The rebalancer feeds quantiles of
  // its sampled-key ring through here (src/shard/rebalance.h).
  static RangeSplitter with_boundaries(K lo, K hi, std::vector<K> boundaries,
                                       std::size_t nshards) {
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    std::erase_if(boundaries, [&](const K& c) { return c <= lo || c >= hi; });
    if (nshards > 0 && boundaries.size() > nshards - 1) {
      boundaries.resize(nshards - 1);
    }
    return RangeSplitter{lo, hi, std::move(boundaries)};
  }

  std::size_t shard_of(const K& k, std::size_t nshards) const {
    if (k < lo) return 0;
    if (k >= hi) return nshards - 1;
    if (!cuts.empty()) {
      // Index = number of cuts <= k; cuts partition [lo, hi) into
      // cuts.size()+1 <= nshards contiguous runs.
      const auto it = std::upper_bound(cuts.begin(), cuts.end(), k);
      return static_cast<std::size_t>(it - cuts.begin());
    }
    const auto span = static_cast<std::uint64_t>(hi) -
                      static_cast<std::uint64_t>(lo);
    // ceil(span / nshards) — written without `span + nshards - 1`, which
    // wraps for spans near the full 64-bit keyspace (width 0 would then
    // divide by zero / index out of bounds).
    const auto width = span / nshards + (span % nshards != 0 ? 1 : 0);
    const auto off = static_cast<std::uint64_t>(k) -
                     static_cast<std::uint64_t>(lo);
    return static_cast<std::size_t>(off / width);
  }

  // Half-open shard interval that can contain keys of [a, b].
  std::pair<std::size_t, std::size_t> shard_span(const K& a, const K& b,
                                                 std::size_t nshards) const {
    if (b < a) return {0, 0};
    return {shard_of(a, nshards), shard_of(b, nshards) + 1};
  }
};

template <class K, class V, std::size_t NumShards = 8,
          class R = EpochReclaimer, class Stats = NullOpStats,
          class Alloc = mem::HeapAlloc>
class ShardedPnbMap : public OneShotQueries<ShardedPnbMap<K, V, NumShards, R,
                                                          Stats, Alloc>> {
  static_assert(NumShards >= 1, "at least one shard");

  struct Table;           // routing generation; defined with private members
  struct MigrationState;  // write-intent ledgers of an in-flight migration

 public:
  using key_type = K;
  using mapped_type = V;
  using Map = PnbMap<K, V, std::less<K>, R, Stats, Alloc>;
  // Batch ingest shapes (src/ingest/, BatchIngestible in core/concepts.h).
  using bulk_item = std::pair<K, V>;
  using batch_op = ingest::BatchOp<K, V>;
  static constexpr std::size_t kNumShards = NumShards;

  // Retired-generation gauges (lifetime(); the pnb_lifecycle_* families).
  // Held through a shared_ptr: a retired shard's deleter runs on the
  // reclaimer's schedule, possibly after the map is gone, and lowers the
  // gauges the cutover raised.
  class Lifetime {
   public:
    // Bytes / shard maps retired by cutovers and not yet freed.
    std::size_t retired_bytes() const noexcept {
      return retired_bytes_.load(std::memory_order_acquire);
    }
    std::size_t retired_objects() const noexcept {
      return retired_objects_.load(std::memory_order_acquire);
    }
    // Open composite Snapshot handles (one-shot merged scans included).
    std::uint64_t active_leases() const noexcept {
      const std::uint64_t closed = snapshots_.value(kClosed);
      const std::uint64_t opened = snapshots_.value(kOpened);
      return opened > closed ? opened - closed : 0;
    }
    // Reshard cutovers so far.
    std::uint64_t current_generation() const noexcept {
      return generation_.load(std::memory_order_acquire);
    }

   private:
    friend class ShardedPnbMap;
    static constexpr std::size_t kOpened = 0;  // snapshots_ cells
    static constexpr std::size_t kClosed = 1;
    std::atomic<std::size_t> retired_bytes_{0};
    std::atomic<std::size_t> retired_objects_{0};
    std::atomic<std::uint64_t> generation_{0};
    StripedCounters<2> snapshots_;
  };

 private:
  // One shard: the per-shard map plus its in-flight writer gauge. The
  // gauge lives on the SHARD, not the routing table: a migration's
  // intermediate table shares its shards with the table it copies, so a
  // writer counts in the one place the drain reads, whichever of the two
  // tables it entered through.
  // Each shard gets Alloc::for_shard(i): with mem::ArenaAlloc that is the
  // immortal pooled(i) arena domain, so shard i's nodes pack into their
  // own slab set (per-shard arena domains) and the domain's lifetime is
  // decoupled from the epoch-retired Shard object. HeapAlloc shards all
  // share the heap, as before.
  // `gauges`/`retired_bytes` are set when a cutover retires the shard.
  struct Shard {
    Shard(R& r, Alloc a) : map(r, a) {}
    Map map;
    std::atomic<std::uint32_t> writers{0};
    std::shared_ptr<Lifetime> gauges;
    std::size_t retired_bytes = 0;
  };

 public:
  explicit ShardedPnbMap(RangeSplitter<K> splitter,
                         R& reclaimer = R::shared())
      : reclaimer_(&reclaimer), lifetime_(std::make_shared<Lifetime>()) {
    check(splitter);
    auto* table = new Table;
    table->splitter = std::move(splitter);
    for (std::size_t i = 0; i < NumShards; ++i) {
      table->shards[i] = new Shard(reclaimer, Alloc::for_shard(i));
    }
    table_.store(table, std::memory_order_release);
  }

  ShardedPnbMap(const ShardedPnbMap&) = delete;
  ShardedPnbMap& operator=(const ShardedPnbMap&) = delete;

  // Destruction assumes quiescence: no concurrent operations and no live
  // Snapshot handles. The current generation is freed here; retired ones
  // are on the reclaimer's schedule, as everywhere else.
  ~ShardedPnbMap() {
    const Table* table = table_.load(std::memory_order_acquire);
    for (Shard* sh : table->shards) delete sh;
    delete table;
  }

  // --- Point operations (single shard, fully linearizable) -----------------

  bool insert(K k, V v) {
    return routed_write(batch_op::insert(std::move(k), std::move(v)));
  }
  bool erase(const K& k) { return routed_write(batch_op::erase(k)); }

  bool contains(const K& k) {
    auto guard = reclaimer_->pin();
    return shard(k).contains(k);
  }
  std::optional<V> get(const K& k) {
    auto guard = reclaimer_->pin();
    return shard(k).get(k);
  }
  V get_or(const K& k, V fallback) {
    auto guard = reclaimer_->pin();
    return shard(k).get_or(k, std::move(fallback));
  }

  // erase(k) then insert(k, v), returning whether k was present: exactly
  // PnbMap::assign's documented non-atomic contract (a reader may observe
  // the key briefly absent). Each half is loss-free across a cutover.
  bool assign(const K& k, const V& v) {
    const bool existed = erase(k);
    insert(k, v);
    return existed;
  }

  // --- Batch ingest (src/ingest/ engine) ------------------------------------

  // Parallel bulk construction: routes the items per shard with the current
  // splitter, then bulk-builds every shard's balanced tree as one executor
  // task. The full options cascade into each shard's build (nested
  // run_tasks batches are caller-participating and cannot deadlock), so a
  // batch skewed onto few shards still fans out within them while the
  // executor width bounds total parallelism. Duplicate keys keep the LAST
  // pair. Same single-writer precondition as PnbMap::bulk_load, for the
  // whole instance: fresh, empty, still-private (hence no migration or
  // admission machinery on this path).
  std::size_t bulk_load(std::vector<bulk_item> items,
                        const scan::ParallelScanOptions& opts = {}) {
    const Table* table = table_.load(std::memory_order_acquire);
    auto routed = by_shard(table->splitter, std::move(items));
    std::array<std::size_t, NumShards> counts{};
    scan::run_tasks(opts, NumShards, [&](std::size_t i) {
      counts[i] = table->shards[i]->map.bulk_load(std::move(routed[i]), opts);
    });
    std::size_t total = 0;
    for (std::size_t c : counts) total += c;
    return total;
  }

  // Batched updates against the LIVE sharded map: ops are normalized once
  // (keep-last), routed per shard with one consistent table load, then
  // every non-empty shard batch is applied as one executor task through
  // the ordinary lock-free paths (full options cascade, so skewed batches
  // still parallelize within their shards). Per-op linearizability is per
  // shard, exactly as for single ops; the batch as a whole is not atomic.
  //
  // Interactions with the lifecycle machinery:
  //   * ADMISSION — if retired-generation memory exceeds the shed
  //     watermark (set_shed_watermark) even after the reclaimer has freed
  //     what no pin still holds, the batch returns untouched with
  //     `deferred = ops.size()`.
  //   * MIGRATION — shard batches racing a reshard are recorded in the
  //     write-intent ledger exactly like single ops, so they are NOT lost;
  //     a shard batch that loses its table to a cutover re-routes itself
  //     under the new splitter and retries.
  ingest::BatchResult apply_batch(std::vector<batch_op> ops,
                                  const scan::ParallelScanOptions& opts = {}) {
    ingest::BatchResult total;
    if (ops.empty()) return total;
    const std::size_t mark = shed_watermark_.load(std::memory_order_relaxed);
    if (retired_bytes() > mark) {
      reclaimer_->collect();
      const std::size_t debt = retired_bytes();
      if (debt > mark) {
        adm_deferred_.fetch_add(1, std::memory_order_relaxed);
        obs::trace_event(obs::TraceKind::kAdmissionShed, debt);
        total.deferred = ops.size();
        return total;
      }
    }
    adm_admitted_.fetch_add(1, std::memory_order_relaxed);
    // Normalize up front so the ledger records exactly the ops that get
    // applied (one op per key, last wins); the per-shard re-normalization
    // inside Map::apply_batch is then a cheap no-op re-sort.
    ingest::normalize_batch(ops, std::less<K>{});
    // The caller's pin spans the whole fan-out (run_tasks participates),
    // so the loaded table outlives every worker's dereference of it.
    auto guard = reclaimer_->pin();
    std::vector<batch_op> pending = std::move(ops);
    // Sample once, before the routing loop: a batch bounced by a cutover
    // retries with the same keys and must not double-count them.
    for (const batch_op& op : pending) sample_key(op.key);
    while (!pending.empty()) {
      const Table* t = table_.load(std::memory_order_seq_cst);
      auto routed = by_shard(t->splitter, std::move(pending));
      pending.clear();
      std::array<ingest::BatchResult, NumShards> parts{};
      std::array<std::vector<batch_op>, NumShards> retry;
      scan::run_tasks(opts, NumShards, [&](std::size_t s) {
        if (routed[s].empty()) return;
        const WriteAdmit a =
            admit_write(t, s, [&](std::vector<batch_op>& ledger) {
              ledger.insert(ledger.end(), routed[s].begin(),
                            routed[s].end());
            });
        if (a == WriteAdmit::kRetry) {
          retry[s] = std::move(routed[s]);
          return;
        }
        parts[s] = t->shards[s]->map.apply_batch(std::move(routed[s]), opts);
        if (a == WriteAdmit::kCounted) exit_writer(t, s);
      });
      for (const ingest::BatchResult& p : parts) total += p;
      // A cutover moved the table mid-batch: re-route the bounced shard
      // batches under the (possibly new) splitter and go again. Bounded
      // in practice by the number of concurrent migrations, which
      // serialize on reshard_mutex_.
      for (std::vector<batch_op>& r : retry) {
        for (batch_op& op : r) pending.push_back(std::move(op));
      }
    }
    return total;
  }

  // --- Resharding (loss-free; see the contract above) -----------------------

  // Migrates the whole map to a new routing function: snapshot every shard
  // (sequentially, same structure as a merged scan), partition the union by
  // the new splitter, bulk-build NumShards fresh balanced shard trees in
  // parallel, replay the write-intent ledgers, and cut over atomically.
  // reshard(splitter()) keeps the routing and rebalances every shard.
  // Returns the number of entries in the migration's base snapshots.
  // Readers see pre- or post-reshard state, never a mix; racing writes are
  // recorded and replayed (contract above). A splitter the constructor
  // would reject throws std::invalid_argument here, changing nothing.
  std::size_t reshard(RangeSplitter<K> new_splitter,
                      const scan::ParallelScanOptions& opts = {}) {
    check(new_splitter);
    std::lock_guard<std::mutex> lock(reshard_mutex_);
    auto guard = reclaimer_->pin();
    const Table* t_old = table_.load(std::memory_order_acquire);
    auto* mig = new MigrationState;
    auto* t_m = publish_migration(t_old, mig);
    drain_writers(t_old);
    // Snapshot every shard (sequentially, ascending — the same structure
    // as a merged scan), then reserve once for the whole union before
    // extracting. Writers are drained, so the maintained counts are exact.
    const std::array<std::size_t, NumShards> old_entries = shard_sizes();
    std::vector<typename Map::Snapshot> snaps;
    snaps.reserve(NumShards);
    for (std::size_t i = 0; i < NumShards; ++i) {
      snaps.push_back(t_m->shards[i]->map.snapshot());
    }
    std::size_t union_size = 0;
    for (const std::size_t n : old_entries) union_size += n;
    std::vector<bulk_item> items;
    items.reserve(union_size);
    // Every key is in [min, max] of the integral key type: a full visit.
    for (auto& snap : snaps) {
      snap.range_visit(std::numeric_limits<K>::min(),
                       std::numeric_limits<K>::max(),
                       [&items](const K& k, const V& v) {
                         items.emplace_back(k, v);
                       });
    }
    snaps.clear();  // release the per-shard pins before the parallel build
    const std::size_t total = items.size();
    auto* t_new = new Table;
    t_new->splitter = std::move(new_splitter);
    auto routed = by_shard(t_new->splitter, std::move(items));
    scan::run_tasks(opts, NumShards, [&](std::size_t i) {
      auto* fresh = new Shard(*reclaimer_, Alloc::for_shard(i));
      fresh->map.bulk_load(std::move(routed[i]), opts);
      t_new->shards[i] = fresh;
    });
    finish_migration(t_old, t_m, mig, t_new, old_entries);
    return total;
  }

  // --- Snapshots -----------------------------------------------------------

  // Composite snapshot: one per-shard snapshot, taken in ascending shard
  // order. Queries against it are mutually consistent per shard (and
  // repeatable: the same Snapshot always answers the same), but the shard
  // snapshots belong to different per-shard phases — see the contract above.
  // The handle references the routing table current at creation and holds
  // an epoch pin taken before it loaded that table, so it keeps answering
  // from the pre-reshard world across any number of reshards; the retired
  // generations it references are freed after it drops.
  class Snapshot : public RangeQueries<Snapshot, std::pair<K, V>> {
   public:
    bool contains(const K& k) const {
      const auto* snap = route(k);
      return snap != nullptr && snap->contains(k);
    }

    std::optional<V> get(const K& k) const {
      const auto* snap = route(k);
      if (snap == nullptr) return std::nullopt;
      return snap->get(k);
    }

    std::size_t size() const {
      std::size_t n = 0;
      for (const auto& s : snaps_) n += s.size();
      return n;
    }

    // Merged visit, streamed as each shard's scan reaches the pairs, never
    // materialized. Only the held shards that can own keys of [lo, hi]
    // (the snapshot table's shard_span) are walked. vis(key, value) returns
    // void (visit all) or bool (false stops): the visited pairs are then an
    // ascending prefix of the merged range, the walk ends, and later shards
    // are never scanned, so stopping after p pairs costs O(p + depth) per
    // shard touched. range_scan, range_count, range_first and
    // parallel_range_count are folds over it (RangeQueries,
    // core/one_shot_queries.h): range_first asks each shard only for the
    // pairs still missing, and a parallel count's key chunk pays only for
    // the shards it spans.
    template <class Visitor>
    void range_visit(const K& lo, const K& hi, Visitor&& vis) const {
      const auto [a, b] = table_->splitter.shard_span(lo, hi, NumShards);
      const std::size_t end = std::min(b, first_ + snaps_.size());
      if constexpr (kOrderFreeVisitor<Visitor>) {
        // Never stops, so each shard gets the visitor itself.
        for (std::size_t i = std::max(a, first_); i < end; ++i) {
          snaps_[i - first_].range_visit(lo, hi, vis);
        }
      } else {
        bool more = true;
        for (std::size_t i = std::max(a, first_); i < end && more; ++i) {
          snaps_[i - first_].range_visit(lo, hi, [&](const K& k, const V& v) {
            more = visit_continues(vis, k, v);
            return more;
          });
        }
      }
    }

    // An epoch pin on the map's shared reclaimer, for a thread that scans
    // this snapshot on the caller's behalf: the composite's own pin keeps
    // the frozen versions alive, and this one covers the retirements that
    // thread's helping may trigger (parallel_range_count, RangeQueries).
    typename R::Guard pin() const { return owner_->reclaimer_->pin(); }

    // Per-shard phases frozen by this snapshot (one entry per shard in the
    // snapshot's span); phases of different shards are not comparable.
    std::vector<std::uint64_t> phases() const {
      std::vector<std::uint64_t> out;
      out.reserve(snaps_.size());
      for (const auto& s : snaps_) out.push_back(s.phase());
      return out;
    }

   private:
    friend class ShardedPnbMap;

    // Counts the handle closed in lifetime().active_leases() when it goes.
    struct CountClose {
      void operator()(Lifetime* l) const noexcept {
        l->snapshots_.add(Lifetime::kClosed);
      }
    };

    Snapshot(const ShardedPnbMap* owner, const Table* table,
             typename R::Guard&& pin, std::size_t first,
             std::vector<typename Map::Snapshot>&& snaps)
        : owner_(owner),
          table_(table),
          first_(first),
          open_(owner->lifetime_.get()),
          pin_(std::move(pin)),
          snaps_(std::move(snaps)) {
      owner->lifetime_->snapshots_.add(Lifetime::kOpened);
    }

    // Snapshot of the shard owning k — routed by the snapshot's own table,
    // so a reshard cannot re-route a live snapshot — or nullptr when k's
    // shard is outside this snapshot's span [first_, first_ + size).
    const typename Map::Snapshot* route(const K& k) const {
      const std::size_t idx = table_->splitter.shard_of(k, NumShards);
      if (idx < first_ || idx - first_ >= snaps_.size()) return nullptr;
      return &snaps_[idx - first_];
    }

    const ShardedPnbMap* owner_;
    const Table* table_;
    std::size_t first_;  // shard index of snaps_[0]
    std::unique_ptr<Lifetime, CountClose> open_;
    // Declared before snaps_: the per-shard snapshots (which reference the
    // pinned generation's maps) are destroyed first, the pin after them.
    typename R::Guard pin_;
    std::vector<typename Map::Snapshot> snaps_;
  };

  // Snapshot covering all shards.
  Snapshot snapshot() { return snapshot_of(nullptr, nullptr); }

  // Snapshot restricted to the shards that can hold keys of [lo, hi] (none
  // when hi < lo). The merged one-shot queries (range_visit, range_scan,
  // range_count, range_first, parallel_range_count; see the consistency
  // contract above) come from OneShotQueries and run on it, so a narrow
  // scan opens one shard's phase, not NumShards; size() snapshots all.
  Snapshot snapshot(const K& lo, const K& hi) { return snapshot_of(&lo, &hi); }

  // --- Introspection --------------------------------------------------------

  // Direct reference into the current routing generation, for tests and
  // debugging. CONTRACT: the reference is only guaranteed while no
  // reshard() runs concurrently or afterwards — a cutover retires the
  // shards it replaces, and once no pin holds them the reclaimer frees
  // them. Quiescent/introspection use only; live code goes through the
  // point ops or a Snapshot.
  Map& shard_ref(std::size_t i) {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)->shards[i]->map;
  }
  // Copy of the current routing function (by value: the table it lives in
  // can be reclaimed right after a cutover, so a reference would dangle).
  // A reshard can make the copy stale — introspection use only; take a
  // Snapshot for a stable routed view.
  RangeSplitter<K> splitter() const {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)->splitter;
  }
  std::size_t shard_of(const K& k) const {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)
        ->splitter.shard_of(k, NumShards);
  }
  // Shard count is a template constant; surfaced for generic callers.
  static constexpr std::size_t shard_count() noexcept { return NumShards; }
  // Whether the per-shard trees carry mechanism counters (obs adapters
  // gate their per-shard op-stats collector on this).
  static constexpr bool kStatsEnabled = Stats::kEnabled;

  // Per-shard key counts for the pnb_shard_size gauge: each shard map's
  // maintained entry_count(), so O(NumShards). Takes no snapshot, opens no
  // phase, and pins the epoch only across the NumShards counter reads.
  // Exact when the map is quiescent; approximate under concurrent writes
  // (see PnbMap::entry_count). A snapshot's size() is the exact census.
  std::array<std::size_t, NumShards> shard_sizes() const {
    auto guard = reclaimer_->pin();
    const Table* table = table_.load(std::memory_order_acquire);
    std::array<std::size_t, NumShards> out{};
    for (std::size_t i = 0; i < NumShards; ++i) {
      out[i] = table->shards[i]->map.entry_count();
    }
    return out;
  }

  // Point-in-time copy of shard i's mechanism counters (all-zero under
  // NullOpStats). Plain struct, safe to hold past reclamation.
  OpStatsSnapshot shard_stats(std::size_t i) {
    auto guard = reclaimer_->pin();
    return table_.load(std::memory_order_acquire)
        ->shards[i]
        ->map.stats()
        .snapshot();
  }

  // Mechanism counters folded in from shards retired by past reshards.
  // shard_stats(i) covers only the live generation (fresh bulk-built
  // trees restart from zero at every cutover); lifetime totals are
  // carried_stats() plus the sum of the live shards. Never waits on a
  // migration: the fold and the cutover's table store happen together
  // under carried_mutex_, so a reader that sees the same carried_stats()
  // before and after its shard_stats() reads saw no cutover in between.
  OpStatsSnapshot carried_stats() const {
    std::lock_guard<std::mutex> lock(carried_mutex_);
    return carried_stats_;
  }

  // Replaced shard maps (and their estimated bytes) retired by cutovers
  // and not yet freed by the reclaimer.
  std::size_t retired_maps() const noexcept {
    return lifetime_->retired_objects();
  }
  std::size_t retired_bytes() const noexcept {
    return lifetime_->retired_bytes();
  }

  // All retired-generation gauges (see Lifetime).
  const Lifetime& lifetime() const noexcept { return *lifetime_; }

  // Attach/detach a write-path key sampler (shard/key_sampler.h). The
  // rebalancer owns the sampler and attaches it for the duration of its
  // lifetime; nullptr detaches. Detaching does not wait for in-flight
  // writers — the sampler must outlive the last write that could observe
  // the pointer (the Rebalancer guarantees this by only detaching at
  // destruction, after stop(), when the caller has quiesced writers, the
  // same quiescence the map's own destructor already assumes).
  void set_key_sampler(KeySampler<K>* sampler) {
    key_sampler_.store(sampler, std::memory_order_release);
  }

  // Retired bytes above which apply_batch sheds (ingest/admission.h).
  // The default never sheds. Safe to change while batches are in flight.
  // Not offered over LeakyReclaimer: it never frees, so the retired gauge
  // never falls and every batch after the first reshard would shed.
  void set_shed_watermark(std::size_t bytes) noexcept
    requires(!std::is_same_v<R, LeakyReclaimer>)
  {
    shed_watermark_.store(bytes, std::memory_order_relaxed);
  }

  // Monotone admission counters, aggregated across every apply_batch
  // since construction (BatchResult::deferred is per-call; these are the
  // per-container source of truth for shed-rate reporting — the
  // pnb_admission_* families read them).
  ingest::AdmissionStats admission_stats() const noexcept {
    return {adm_admitted_.load(std::memory_order_relaxed),
            adm_deferred_.load(std::memory_order_relaxed)};
  }

 private:
  // Rejects, before anything is locked or published, what shard_of would
  // route past the shard array or out of key order: more than
  // NumShards - 1 cuts, or cuts not strictly ascending inside (lo, hi).
  static void check(const RangeSplitter<K>& s) {
    const std::vector<K>& c = s.cuts;
    if (c.size() >= NumShards ||
        (!c.empty() && (c.front() <= s.lo || c.back() >= s.hi)) ||
        std::adjacent_find(c.begin(), c.end(), std::greater_equal<K>()) !=
            c.end()) {
      throw std::invalid_argument("ShardedPnbMap: bad splitter");
    }
  }

  static const K& key_of(const bulk_item& it) { return it.first; }
  static const K& key_of(const batch_op& op) { return op.key; }

  // The one per-shard router: splits items by owning shard under
  // `splitter`, keeping their relative order within each shard (ledger
  // replay relies on it).
  template <class Item>
  static std::array<std::vector<Item>, NumShards> by_shard(
      const RangeSplitter<K>& splitter, std::vector<Item> items) {
    std::array<std::vector<Item>, NumShards> out;
    for (Item& it : items) {
      out[splitter.shard_of(key_of(it), NumShards)].push_back(std::move(it));
    }
    return out;
  }

  // One immutable (splitter, shards) routing generation. Published through
  // table_; operations load it once and stay internally consistent.
  // `migration` (non-null only on the intermediate generation a migration
  // publishes) is the single extra field; the writer gauges live on the
  // Shard objects, which that generation shares with the one it copies.
  struct Table {
    Table() = default;
    Table(const Table& o) : splitter(o.splitter), shards(o.shards) {}
    Table& operator=(const Table&) = delete;

    RangeSplitter<K> splitter{};
    std::array<Shard*, NumShards> shards{};
    MigrationState* migration = nullptr;
  };

  // Write-intent ledgers of one in-flight migration, one per shard (a
  // migration replaces every shard). A writer records its op under its
  // shard's ledger lock before applying it to the pre-migration world;
  // the migration replays every recorded op in order into the replacement
  // maps before the cutover, then closes the ledgers (open = false) under
  // the locks — a writer observing the closed ledger re-routes itself to
  // the already-published new table.
  struct MigrationState {
    struct Ledger {
      std::mutex mu;
      std::vector<batch_op> ops;  // guarded by mu; recorded in accept order
    };

    std::array<Ledger, NumShards> ledgers;
    std::atomic<bool> open{true};
  };

  // --- Writer protocol ------------------------------------------------------
  //
  // Every write enters its shard's writer gauge and re-checks the
  // published table pointer (both seq_cst): if the re-check still returns
  // t, a migration's later table store is ordered after it, so the
  // migration's drain loop must observe the gauge increment and wait for
  // the write to finish; if the re-check fails, the writer backs out
  // without touching the shard and retries on the new table. A write that
  // will RECORD into a migration ledger releases the gauge the moment it
  // commits to recording — before even queueing on the ledger lock; the
  // record-or-retry guarantee covers it from that point on, and writers
  // stacked on the lock would otherwise keep the gauge nonzero and
  // starve the drain. Hence after drain_writers
  // returns, every write that can still reach a to-be-snapshotted map is
  // recorded in a ledger first — the loss-freedom linchpin.

  enum class WriteAdmit {
    kCounted,   // proceed; caller holds the gauge and must exit_writer
    kRecorded,  // proceed; intent recorded, gauge already released
    kRetry,     // table moved or ledger closed: reload and re-route
  };

  // Gauges the write in, re-checks the table, and records the intent when
  // a migration is in flight. `record` appends the intent op(s) to the
  // ledger vector it is handed (apply_batch records whole shard batches).
  template <class RecordFn>
  WriteAdmit admit_write(const Table* t, std::size_t s, RecordFn&& record) {
    Shard* sh = t->shards[s];
    sh->writers.fetch_add(1, std::memory_order_seq_cst);
    if (table_.load(std::memory_order_seq_cst) != t) {
      sh->writers.fetch_sub(1, std::memory_order_release);
      return WriteAdmit::kRetry;
    }
    MigrationState* mig = t->migration;
    if (mig == nullptr) return WriteAdmit::kCounted;
    // Committed to record-or-retry: from here the write either lands in
    // the ledger (replay covers it) or bounces to the new table — it can
    // no longer reach the old world unrecorded. Release the gauge BEFORE
    // queueing on the ledger lock, so writers stacked up on a busy
    // migrating shard cannot keep the drain spinning.
    sh->writers.fetch_sub(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(mig->ledgers[s].mu);
      if (!mig->open.load(std::memory_order_acquire)) {
        return WriteAdmit::kRetry;
      }
      record(mig->ledgers[s].ops);
    }
    return WriteAdmit::kRecorded;
  }

  void exit_writer(const Table* t, std::size_t s) {
    t->shards[s]->writers.fetch_sub(1, std::memory_order_release);
  }

  // Write-path sampling hook: one relaxed load when no sampler is attached
  // (the common case). Called BEFORE admission/routing so sampled keys
  // reflect offered load, not just admitted load — the rebalancer wants to
  // know where pressure is, and a shed write is still pressure.
  void sample_key(const K& k) noexcept {
    if (KeySampler<K>* ks = key_sampler_.load(std::memory_order_acquire)) {
      ks->maybe_record(k);
    }
  }

  // The single-key write protocol shared by insert/erase: route on the
  // loaded table, admit (gauge + re-check + recording `op`), apply `op`
  // through the routed shard's ordinary path, release the gauge when the
  // admit left it counted, and re-route from scratch whenever a cutover
  // moved the table underneath us. Returns the op's ack.
  bool routed_write(batch_op op) {
    sample_key(op.key);
    auto guard = reclaimer_->pin();
    for (;;) {
      const Table* t = table_.load(std::memory_order_seq_cst);
      const std::size_t s = t->splitter.shard_of(op.key, NumShards);
      const WriteAdmit a = admit_write(
          t, s, [&](std::vector<batch_op>& ledger) { ledger.push_back(op); });
      if (a == WriteAdmit::kRetry) continue;
      ingest::BatchResult unused;
      const bool r = ingest::apply_op(t->shards[s]->map, op, unused);
      if (a == WriteAdmit::kCounted) exit_writer(t, s);
      return r;
    }
  }

  // Waits until no unrecorded write is still in flight on the shards
  // about to be snapshotted. Recording writers release their gauge before
  // queueing on the ledger lock, so a write-heavy migration window cannot
  // starve this.
  void drain_writers(const Table* t) {
    Backoff backoff;
    for (std::size_t s = 0; s < NumShards; ++s) {
      while (t->shards[s]->writers.load(std::memory_order_seq_cst) != 0) {
        backoff.pause();
      }
    }
  }

  // Publishes the intermediate migration generation: same routing as
  // t_old, plus the write-intent ledgers. After this store every NEW
  // writer records before applying; drain_writers then waits out the
  // writes that entered t_old before the store.
  Table* publish_migration(const Table* t_old, MigrationState* mig) {
    auto* t_m = new Table(*t_old);
    t_m->migration = mig;
    table_.store(t_m, std::memory_order_seq_cst);
    return t_m;
  }

  // Replays the ledgers into t_new, cuts over, closes the migration, and
  // retires the whole old generation {t_old, t_m, mig, t_m's shards} to
  // the epoch reclaimer. `old_entries` sizes the replaced shards for the
  // retired-bytes gauge.
  void finish_migration(const Table* t_old, Table* t_m, MigrationState* mig,
                        Table* t_new,
                        const std::array<std::size_t, NumShards>& old_entries) {
    // A reshard changes key→shard ownership, so each ledger is re-routed
    // under t_new's splitter. Per-key order survives: a key sits in one
    // old ledger, and by_shard keeps order. The fresh maps are private to
    // the migration until the cutover (plus late re-routed writers,
    // ordinary concurrent traffic for a live PnbMap).
    const auto replay = [t_new](std::vector<batch_op>&& ops) {
      auto routed = by_shard(t_new->splitter, std::move(ops));
      for (std::size_t i = 0; i < NumShards; ++i) {
        ingest::apply_ordered<K, V>(t_new->shards[i]->map, routed[i]);
      }
    };
    // Bulk pass outside the locks: drain what accumulated during the
    // base build so the locked window below only covers stragglers.
    for (auto& ledger : mig->ledgers) {
      std::vector<batch_op> taken;
      {
        std::lock_guard<std::mutex> lk(ledger.mu);
        taken.swap(ledger.ops);
      }
      replay(std::move(taken));
    }
    // Final pass under ALL ledger locks: replay the remainder, publish the
    // new table, then close the ledgers. A writer blocked on a lock here
    // observes open == false afterwards and re-routes to the table
    // published one line earlier — no acknowledged write can fall between
    // the replay and the cutover.
    {
      std::vector<std::unique_lock<std::mutex>> locks;
      locks.reserve(NumShards);
      for (auto& ledger : mig->ledgers) locks.emplace_back(ledger.mu);
      for (auto& ledger : mig->ledgers) replay(std::move(ledger.ops));
      {
        // Fold the retiring shards' mechanism counters into the carried
        // aggregate at the cutover itself (see carried_stats()); the fresh
        // bulk-built trees start from zero.
        std::lock_guard<std::mutex> stats_lock(carried_mutex_);
        table_.store(t_new, std::memory_order_seq_cst);
        for (Shard* sh : t_m->shards) {
          carried_stats_ += sh->map.stats().snapshot();
        }
      }
      mig->open.store(false, std::memory_order_release);
    }
    // The cutover instant — the event the trace timeline anchors shard
    // rebalances on (arg = cutovers so far, this one included).
    obs::trace_event(
        obs::TraceKind::kReshardCutover,
        lifetime_->generation_.fetch_add(1, std::memory_order_acq_rel) + 1);
    // Retired to the shared orphan list: this (often resharding) thread may
    // go idle next, and a map copy must not wait in its limbo.
    reclaimer_->retire_shared(const_cast<Table*>(t_old), &delete_table);
    reclaimer_->retire_shared(t_m, &delete_table);
    reclaimer_->retire_shared(mig, &delete_migration);
    for (std::size_t i = 0; i < NumShards; ++i) {
      Shard* sh = t_m->shards[i];
      sh->gauges = lifetime_;
      sh->retired_bytes = map_bytes_estimate(old_entries[i]);
      lifetime_->retired_bytes_.fetch_add(sh->retired_bytes,
                                          std::memory_order_relaxed);
      lifetime_->retired_objects_.fetch_add(1, std::memory_order_relaxed);
      reclaimer_->retire_shared(sh, &delete_retired_shard);
    }
  }

  // --- Retirement deleters / sizing -----------------------------------------

  // The gauges fall only once the map's memory is really gone.
  static void delete_retired_shard(void* p) {
    auto* sh = static_cast<Shard*>(p);
    const std::shared_ptr<Lifetime> gauges = std::move(sh->gauges);
    const std::size_t bytes = sh->retired_bytes;
    delete sh;
    gauges->retired_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    gauges->retired_objects_.fetch_sub(1, std::memory_order_relaxed);
  }
  static void delete_table(void* p) { delete static_cast<Table*>(p); }
  static void delete_migration(void* p) {
    delete static_cast<MigrationState*>(p);
  }

  // Footprint estimate of a retired shard map for the admission gauge: a
  // leaf-oriented tree with n entries holds ~n leaves and ~n internals,
  // each priced at the bytes its allocator really hands out for it.
  static std::size_t map_bytes_estimate(std::size_t entries) {
    using Tree = typename Map::Tree;
    return sizeof(Shard) +
           entries * (Alloc::template slot_bytes<typename Tree::Leaf>() +
                      Alloc::template slot_bytes<typename Tree::Internal>());
  }

  // Shard routed for a read: the epoch pin the CALLER holds keeps the
  // loaded table (and the map behind it) alive for the read's duration —
  // a cutover retires the table only after this load, so the grace period
  // covers us.
  Map& shard(const K& k) {
    const Table* table = table_.load(std::memory_order_acquire);
    return table->shards[table->splitter.shard_of(k, NumShards)]->map;
  }

  // snapshot(lo, hi), or snapshot() when the bounds are null.
  Snapshot snapshot_of(const K* lo, const K* hi) {
    // Pin BEFORE the table load: whichever table we load, its retire comes
    // after our pin, so the grace period waits for this handle.
    auto pin = reclaimer_->pin();
    const Table* table = table_.load(std::memory_order_acquire);
    const auto [first, last] =
        lo == nullptr ? std::pair<std::size_t, std::size_t>{0, NumShards}
                      : table->splitter.shard_span(*lo, *hi, NumShards);
    std::vector<typename Map::Snapshot> snaps;
    snaps.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      snaps.push_back(table->shards[i]->map.snapshot());
    }
    return Snapshot(this, table, std::move(pin), first, std::move(snaps));
  }

  R* reclaimer_;
  std::shared_ptr<Lifetime> lifetime_;
  // apply_batch sheds above this (set_shed_watermark); max never sheds.
  std::atomic<std::size_t> shed_watermark_{
      std::numeric_limits<std::size_t>::max()};
  // Admission counters (admission_stats()); relaxed monotone counters.
  std::atomic<std::uint64_t> adm_admitted_{0};
  std::atomic<std::uint64_t> adm_deferred_{0};
  // Optional write-path key sampler (set_key_sampler); null = sampling off.
  std::atomic<KeySampler<K>*> key_sampler_{nullptr};
  std::atomic<const Table*> table_{nullptr};
  // Serializes reshard() (one migration at a time).
  std::mutex reshard_mutex_;
  // Sum of retired generations' shard stats; carried_mutex_ is held only
  // while folding at a cutover and while copying in carried_stats().
  mutable std::mutex carried_mutex_;
  OpStatsSnapshot carried_stats_{};
};

// The sharded front-end models the same concepts as the single-shard map.
static_assert(OrderedMap<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(MapScannable<ShardedPnbMap<long, long, 4>, long, long>);
static_assert(ParallelScannable<ShardedPnbMap<long, long, 4>, long>);
static_assert(Snapshottable<ShardedPnbMap<long, long, 4>>);
static_assert(BatchIngestible<ShardedPnbMap<long, long, 4>>);

}  // namespace pnbbst

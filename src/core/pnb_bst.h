// PNB-BST — Persistent Non-Blocking Binary Search Tree with wait-free range
// queries (Fatourou & Ruppert, SPAA 2019 / FORTH TR 470).
//
// The tree is leaf-oriented: Internal keys only route, Leaf keys are the set
// members. Insert/Delete/Find are non-blocking, RangeScan (range_visit /
// range_scan / range_count / snapshots) is wait-free. Linearizable; works
// with any number of dynamically joining threads.
//
// Persistence mechanism (§4.1): every node records the phase (`seq`) that
// created it and the node it replaced (`prev`). A global phase counter is
// bumped by every scan; an operation with sequence number s traverses the
// version-s tree T_s by skipping — via prev chains — nodes created by later
// phases. The handshaking check inside Help() aborts any update attempt
// that straddled a phase boundary, so a scan with sequence number s sees
// exactly the updates linearized in phases <= s.
//
// Template parameters:
//   Key      — copyable, totally ordered by Compare.
//   Compare  — strict weak order over Key.
//   R        — reclaimer policy (EpochReclaimer or LeakyReclaimer); see
//              reclaim/reclaimer.h for the contract. The reclaimer must
//              outlive the tree and all of the tree's pending retirements.
//   Stats    — NullOpStats (default) or CountingOpStats.
//   Alloc    — allocator policy for nodes and Info records:
//              mem::HeapAlloc (default, plain new/delete) or
//              mem::ArenaAlloc (slab arena; see mem/alloc_policy.h and
//              DESIGN.md §11). With ArenaAlloc the backing ArenaDomain
//              must outlive the tree AND the reclaimer's pending
//              retirements (deleters free into the domain).
//
// Thread safety: all public operations may be called concurrently from any
// thread. Operations are logically const but physically help concurrent
// updates, so the API is non-const throughout.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory_resource>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/info.h"
#include "core/keyspace.h"
#include "core/node.h"
#include "core/one_shot_queries.h"
#include "core/op_stats.h"
#include "core/tagged_update.h"
#include "ingest/batch_apply.h"
#include "ingest/bulk_build.h"
#include "mem/alloc_policy.h"
#include "reclaim/epoch.h"
#include "reclaim/leaky.h"
#include "reclaim/reclaimer.h"
#include "scan/parallel_scan.h"
#include "util/cacheline.h"

namespace pnbbst {

template <class Key, class Compare = std::less<Key>,
          class R = EpochReclaimer, class Stats = NullOpStats,
          class Alloc = mem::HeapAlloc>
class PnbBst
    : public OneShotQueries<PnbBst<Key, Compare, R, Stats, Alloc>> {
 public:
  using key_type = Key;
  using Node = PnbNode<Key>;
  using Leaf = PnbLeaf<Key>;
  using Internal = PnbInternal<Key>;
  using Info = PnbInfo<Key>;
  using Update = TaggedUpdate<Info>;
  using EK = ExtKey<Key>;
  // Batch ingest shapes (src/ingest/, BatchIngestible in core/concepts.h).
  using bulk_item = Key;
  using batch_op = ingest::BatchOp<Key>;
  // Bench rows name the arena build apart, so the two configurations
  // (fig4, tab9, micro_ops) diff side by side.
  static constexpr const char* kName =
      Alloc::kIsArena ? "pnb-bst-arena" : "pnb-bst";
  static constexpr bool kLinearizableScan = true;

  explicit PnbBst(R& reclaimer = R::shared(), Alloc alloc = Alloc())
      : reclaimer_(&reclaimer), alloc_(alloc) {
    dummy_ = shared_dummy();
    // Initial tree (Fig. 2, line 31): Root(∞2) with leaves ∞1 and ∞2.
    root_ = alloc_.template create<Internal>();
    root_->key = EK::inf2();
    root_->seq = 0;
    root_->prev = nullptr;
    root_->store_update(Update::dummy(dummy_), std::memory_order_relaxed);
    root_->left.store(make_leaf(EK::inf1(), 0, nullptr),
                      std::memory_order_relaxed);
    root_->right.store(make_leaf(EK::inf2(), 0, nullptr),
                       std::memory_order_relaxed);
  }

  // Bulk-load constructor: builds a perfectly balanced tree from a range
  // of keys (sorted or not — bulk_load sorts and de-duplicates). Runs
  // before any concurrency; all nodes belong to phase 0. Sequential by
  // construction (constructors have no executor to fan out on); use
  // bulk_load directly for the parallel build.
  template <class It>
  PnbBst(It first, It last, R& reclaimer = R::shared()) : PnbBst(reclaimer) {
    bulk_load(std::vector<Key>(first, last), scan::ParallelScanOptions(1));
  }

  PnbBst(const PnbBst&) = delete;
  PnbBst& operator=(const PnbBst&) = delete;

  // Destructor assumes quiescence (no concurrent operations). Frees the
  // current version tree T_inf; previously unlinked nodes are already owned
  // by the reclaimer and freed on its schedule.
  ~PnbBst() {
    std::vector<Node*> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (!n->is_leaf()) {
        Internal* in = as_internal(n);
        stack.push_back(in->left.load(std::memory_order_relaxed));
        stack.push_back(in->right.load(std::memory_order_relaxed));
      }
      node_deleter(n);
    }
  }

  // --- Set operations ------------------------------------------------------

  // Inserts k; returns false iff k was already present.
  bool insert(const Key& k) {
    auto guard = reclaimer_->pin();
    for (;;) {
      stats_.inc_attempts();
      const std::uint64_t seq = counter_.load(std::memory_order_seq_cst);
      const SearchResult sr = search(k, seq);
      const LeafCheck chk = validate_leaf(sr.gp, sr.p, sr.l, k);
      if (!chk.ok) {
        stats_.inc_validate_fails();
        continue;
      }
      if (less_.equal(sr.l->key, k)) return false;  // duplicate

      // Build the 3-node replacement subtree (Fig. 5, lines 161–163).
      Leaf* new_leaf = make_leaf(EK::finite(k), seq, nullptr);
      Leaf* new_sibling = make_leaf(sr.l->key, seq, nullptr);
      Internal* new_internal =
          make_internal(less_.max(EK::finite(k), sr.l->key), seq, sr.l);
      const bool k_left = less_(EK::finite(k), sr.l->key);
      new_internal->left.store(k_left ? static_cast<Node*>(new_leaf)
                                      : static_cast<Node*>(new_sibling),
                               std::memory_order_relaxed);
      new_internal->right.store(k_left ? static_cast<Node*>(new_sibling)
                                       : static_cast<Node*>(new_leaf),
                                std::memory_order_relaxed);

      Node* nodes[2] = {sr.p, sr.l};
      Update old_up[2] = {chk.pup, sr.l->load_update()};
      switch (execute(nodes, old_up, 2, sr.p, sr.l, new_internal, seq,
                      /*from_delete=*/false)) {
        case ExecResult::kSuccess:
          stats_.inc_commits();
          return true;
        case ExecResult::kFailNotPublished:
          // Info never became visible: the speculative nodes are private.
          // Typed destroys (not delete_unpublished): the static types are
          // known here, and the runtime is_leaf dispatch makes GCC's
          // inliner warn about the dead cross-type branch.
          stats_.inc_unpublished_frees(3);
          Alloc::template destroy<Leaf>(new_leaf);
          Alloc::template destroy<Leaf>(new_sibling);
          Alloc::template destroy<Internal>(new_internal);
          break;
        case ExecResult::kFailPublished:
          // The (aborted) Info is visible and references new_internal; no
          // helper will dereference it (aborted Infos never reach the child
          // CAS, Lemma 10) but we retire through the reclaimer regardless.
          retire_node(new_leaf);
          retire_node(new_sibling);
          retire_node(new_internal);
          break;
      }
    }
  }

  // Removes k; returns false iff k was absent. Accepts any probe type the
  // comparator can order against Key (heterogeneous erase — a map layered on
  // the tree erases by key without materializing a stored entry).
  template <class LK = Key>
    requires ProbeFor<LK, Key, Compare>
  bool erase(const LK& k) {
    auto guard = reclaimer_->pin();
    for (;;) {
      stats_.inc_attempts();
      const std::uint64_t seq = counter_.load(std::memory_order_seq_cst);
      const SearchResult sr = search(k, seq);
      const LeafCheck chk = validate_leaf(sr.gp, sr.p, sr.l, k);
      if (!chk.ok) {
        stats_.inc_validate_fails();
        continue;
      }
      if (!less_.equal(sr.l->key, k)) return false;  // not present

      // sibling := ReadChild(p, l.key >= p.key, seq)   (Fig. 5, line 182)
      const bool sib_left = !less_(sr.l->key, sr.p->key);
      Node* sibling = read_child(sr.p, sib_left, seq);
      const LinkCheck c2 = validate_link(sr.p, sibling, sib_left);
      if (!c2.ok) {
        stats_.inc_validate_fails();
        continue;
      }

      // newNode := copy of sibling with seq := seq, prev := p (line 185).
      Node* new_node = nullptr;
      Update supdate{};
      bool validated = true;
      if (sibling->is_leaf()) {
        new_node = make_leaf(sibling->key, seq, sr.p);
        supdate = sibling->load_update();
      } else {
        Internal* sib_int = as_internal(sibling);
        Internal* copy = make_internal(sibling->key, seq, sr.p);
        copy->left.store(sib_int->left.load(std::memory_order_seq_cst),
                         std::memory_order_relaxed);
        copy->right.store(sib_int->right.load(std::memory_order_seq_cst),
                          std::memory_order_relaxed);
        new_node = copy;
        const LinkCheck c3 = validate_link(
            sib_int, copy->left.load(std::memory_order_relaxed), true);
        validated = c3.ok;
        supdate = c3.up;
        if (validated) {
          const LinkCheck c4 = validate_link(
              sib_int, copy->right.load(std::memory_order_relaxed), false);
          validated = c4.ok;
        }
      }
      if (!validated) {
        stats_.inc_validate_fails();
        delete_unpublished(new_node);
        continue;
      }

      Node* nodes[4] = {sr.gp, sr.p, sr.l, sibling};
      Update old_up[4] = {chk.gpup, chk.pup, sr.l->load_update(), supdate};
      switch (execute(nodes, old_up, 4, sr.gp, sr.p, new_node, seq,
                      /*from_delete=*/true)) {
        case ExecResult::kSuccess:
          stats_.inc_commits();
          return true;
        case ExecResult::kFailNotPublished:
          delete_unpublished(new_node);
          break;
        case ExecResult::kFailPublished:
          retire_node(new_node);
          break;
      }
    }
  }

  // Wait-free-helped Find (Fig. 3, lines 69–82). Heterogeneous: any probe
  // type Compare can order against Key works (see ProbeFor, core/keyspace.h).
  template <class LK = Key>
    requires ProbeFor<LK, Key, Compare>
  bool contains(const LK& k) {
    auto guard = reclaimer_->pin();
    return find(k) != nullptr;
  }

  // Like contains(), but returns the stored key object. With a comparator
  // that inspects only part of the key (e.g. the key field of a key/value
  // struct — see core/pnb_map.h), this is a linearizable lookup.
  template <class LK = Key>
    requires ProbeFor<LK, Key, Compare>
  std::optional<Key> get(const LK& k) {
    auto guard = reclaimer_->pin();
    const Key* stored = find(k);
    if (stored == nullptr) return std::nullopt;
    return *stored;
  }

  // --- Snapshots ------------------------------------------------------------

  // A Snapshot freezes one phase and supports any number of point and range
  // queries against it, all mutually consistent. The handle holds an epoch
  // pin for its whole lifetime — that pin is what keeps T_seq's nodes
  // alive: destroy snapshots promptly, or memory reclamation stalls
  // (documented limitation, DESIGN.md §6).
  class Snapshot : public RangeQueries<Snapshot, Key> {
   public:
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot& operator=(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    std::uint64_t phase() const noexcept { return seq_; }

    template <class LK = Key>
      requires ProbeFor<LK, Key, Compare>
    bool contains(const LK& k) const {
      return find(k) != nullptr;
    }

    // The stored key equal to probe k in this version, or nullopt.
    template <class LK = Key>
      requires ProbeFor<LK, Key, Compare>
    std::optional<Key> get(const LK& k) const {
      const Key* stored = find(k);
      if (stored == nullptr) return std::nullopt;
      return *stored;
    }

    // vis returns void (visit all) or bool (false stops; see scan_tree).
    // range_scan, range_count, range_first and parallel_range_count are
    // folds over it (RangeQueries, core/one_shot_queries.h).
    template <class BLo = Key, class BHi = Key, class Visitor>
      requires ProbeFor<BLo, Key, Compare> && ProbeFor<BHi, Key, Compare>
    void range_visit(const BLo& lo, const BHi& hi, Visitor&& vis) const {
      tree_->scan_tree(seq_, &lo, &hi, vis);
    }

    // The whole version counted by range_count's own fold (CountVisitor).
    std::size_t size() const {
      std::size_t n = 0;
      detail::CountVisitor count{&n};
      tree_->template scan_tree<Key, Key>(seq_, nullptr, nullptr, count);
      return n;
    }

    // An epoch pin on the tree's reclaimer, for a thread that scans this
    // snapshot on the caller's behalf: the snapshot's own guard keeps the
    // version-seq nodes alive, and this pin covers the retirements that
    // thread's helping may trigger (parallel_range_count, RangeQueries).
    typename R::Guard pin() const { return tree_->reclaimer_->pin(); }

    // Smallest key >= k in this version, or nullopt. Wait-free.
    template <class LK = Key>
      requires ProbeFor<LK, Key, Compare>
    std::optional<Key> successor(const LK& k) const {
      return tree_->bound_query(seq_, k, /*forward=*/true);
    }

    // Largest key <= k in this version, or nullopt. Wait-free.
    template <class LK = Key>
      requires ProbeFor<LK, Key, Compare>
    std::optional<Key> predecessor(const LK& k) const {
      return tree_->bound_query(seq_, k, /*forward=*/false);
    }

    // Smallest / largest key in this version.
    std::optional<Key> min() const { return tree_->extreme(seq_, true); }
    std::optional<Key> max() const { return tree_->extreme(seq_, false); }

   private:
    friend class PnbBst;
    Snapshot(PnbBst* tree, std::uint64_t seq, typename R::Guard&& guard)
        : tree_(tree), seq_(seq), guard_(std::move(guard)) {}

    // The version-seq descent of both lookups, helping in-progress updates
    // on the way: the stored key equal to k, or nullptr.
    template <class LK>
    const Key* find(const LK& k) const {
      Node* l = tree_->root_;
      while (!l->is_leaf()) {
        Internal* in = as_internal(l);
        tree_->help_if_in_progress(in);
        l = tree_->read_child(in, tree_->less_(k, in->key), seq_);
      }
      return tree_->less_.equal(l->key, k) ? &l->key.key : nullptr;
    }

    PnbBst* tree_;
    std::uint64_t seq_;
    typename R::Guard guard_;
  };

  // The one place a query opens a phase (RangeScan, Fig. 4: pin, then
  // Counter's fetch-and-increment); every one-shot query goes through it.
  Snapshot snapshot() {
    auto guard = reclaimer_->pin();
    stats_.inc_scans();
    const std::uint64_t seq =
        counter_.fetch_add(1, std::memory_order_seq_cst);
    return Snapshot(this, seq, std::move(guard));
  }

  // --- Range queries (wait-free) ------------------------------------------
  //
  // The one-shot queries (range_visit, range_scan, range_count, range_first,
  // parallel_range_count, size, successor, min, ...) come from
  // OneShotQueries, each a fresh snapshot asked once: one phase, linearized
  // at its end (Theorem 47). Bounds may be any probe type Compare orders
  // against Key. A query over [lo, hi] runs on snapshot(): one phase covers
  // every key of the tree.
  template <class BLo, class BHi>
  Snapshot snapshot(const BLo&, const BHi&) {
    return snapshot();
  }

  // --- Batch ingest (src/ingest/ engine) ------------------------------------

  // Parallel sorted bulk construction: sorts + de-duplicates `keys`, builds
  // perfectly balanced phase-0 subtrees per executor task, and splices the
  // result under the root. Returns the number of (distinct) keys loaded.
  //
  // SINGLE-WRITER PRECONDITION (ingest/bulk_build.h): the tree must be
  // freshly constructed — never updated, never scanned — and not yet
  // visible to any other thread; construction bypasses the freeze/help
  // protocol entirely. Publish the tree only after bulk_load returns.
  // Violating the "fresh" half is detectable in O(1) and would otherwise
  // silently discard keys or let pre-existing snapshots observe the new
  // phase-0 contents (time travel), so it aborts in ALL build types; the
  // "still-private" half is on the caller. The check is exact: an
  // erase-emptied tree's ∞1 leaf is a copy with a non-null prev (and a
  // scanned tree has phase() > 0), while the construction-time leaf has
  // seq 0 and no prev.
  std::size_t bulk_load(std::vector<Key> keys,
                        const scan::ParallelScanOptions& opts = {}) {
    Node* old_left = root_->left.load(std::memory_order_relaxed);
    if (!old_left->is_leaf() || old_left->key.is_finite() ||
        old_left->prev != nullptr || old_left->seq != 0 || phase() != 0) {
      std::fprintf(stderr,
                   "PnbBst::bulk_load: tree is not fresh (it has seen "
                   "updates or scans) — cold loads only; use apply_batch "
                   "for live trees\n");
      std::abort();
    }
    ingest::sort_unique_last(keys, [this](const Key& a, const Key& b) {
      return less_.cmp(a, b);
    });
    std::vector<EK> leaves;
    leaves.reserve(keys.size() + 1);
    for (Key& k : keys) leaves.push_back(EK::finite(std::move(k)));
    leaves.push_back(EK::inf1());
    root_->left.store(ingest::TreeBuilder<PnbBst>::build(*this, leaves, opts),
                      std::memory_order_relaxed);
    delete_unpublished(old_left);  // the plain ∞1 leaf from construction
    return keys.size();
  }

  // Batched updates against the LIVE tree: sorts + de-duplicates the batch
  // (last op per key wins), tiles it into contiguous sorted runs, and
  // applies each run on the executor through the ordinary lock-free
  // insert/erase paths — so every op keeps its usual linearizability and
  // the batch wins locality (sorted runs share upper-tree paths) plus
  // parallel issue. The batch as a whole is NOT atomic (ingest/
  // batch_apply.h has the argument).
  ingest::BatchResult apply_batch(std::vector<batch_op> ops,
                                  const scan::ParallelScanOptions& opts = {}) {
    ingest::normalize_batch(ops, [this](const Key& a, const Key& b) {
      return less_.cmp(a, b);
    });
    return ingest::apply_runs(*this, ops, opts);
  }

  // apply_runs' overlapped descents (ingest/batch_apply.h): one read-only
  // lockstep walk of up to ingest::kDescentGroup ops' keys from the root,
  // each key one level per round, round-robin, prefetching every next
  // node, so the group's cache misses overlap and the ops' own searches
  // then hit the cache. A hint outside the paper's protocol: it only loads
  // child pointers and immutable node fields — no helping, no phase read,
  // no CAS — so no op's linearizability changes. It takes its own pin
  // because apply_batch may run unpinned, and a node on a warmed path can
  // be unlinked and retired while the walk still holds it.
  template <class Op>
  void prefetch_paths(std::span<const Op> ops) {
    auto guard = reclaimer_->pin();
    std::array<Node*, ingest::kDescentGroup> at{};
    const std::size_t n = std::min(ops.size(), at.size());
    std::fill_n(at.begin(), n, root_);
    for (bool descending = true; descending;) {
      descending = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (at[i]->is_leaf()) continue;
        Internal* p = as_internal(at[i]);
        at[i] = p->load_child(less_(ops[i].key, p->key));
        __builtin_prefetch(at[i]);
        descending = true;
      }
    }
  }

  // --- Introspection ---------------------------------------------------------

  Stats& stats() noexcept { return stats_; }
  const Stats& stats() const noexcept { return stats_; }
  R& reclaimer() noexcept { return *reclaimer_; }

  // Current phase number (number of scans started so far).
  std::uint64_t phase() const noexcept {
    return counter_.load(std::memory_order_relaxed);
  }

  // Debug/validation access (quiescent use only; see core/validate.h).
  Internal* debug_root() noexcept { return root_; }
  const Internal* debug_root() const noexcept { return root_; }

 private:
  // Bulk construction (ingest/bulk_build.h) uses the node factories and
  // root pointer directly — it builds private phase-0 subtrees and never
  // touches the freeze/help machinery.
  template <class Tree>
  friend struct ingest::TreeBuilder;

  struct SearchResult {
    Internal* gp;
    Internal* p;
    Node* l;
  };
  struct LinkCheck {
    bool ok;
    Update up;
  };
  struct LeafCheck {
    bool ok;
    Update gpup;
    Update pup;
  };
  enum class ExecResult { kSuccess, kFailNotPublished, kFailPublished };

  // --- Traversal -------------------------------------------------------------

  // ReadChild (Fig. 3, lines 43–48): version-seq child of p.
  Node* read_child(Internal* p, bool go_left, std::uint64_t seq) {
    Node* l = p->load_child(go_left);
    while (l->seq > seq) l = l->prev;
    return l;
  }

  // Search (Fig. 3, lines 32–42): walks T_seq to a leaf.
  template <class LK>
  SearchResult search(const LK& k, std::uint64_t seq) {
    Internal* gp = nullptr;
    Internal* p = nullptr;
    Node* l = root_;
    while (!l->is_leaf()) {
      gp = p;
      p = as_internal(l);
      l = read_child(p, less_(k, p->key), seq);
    }
    return {gp, p, l};
  }

  // The loop of Find (Fig. 3, lines 69–82) behind contains and get: search
  // T_seq, retrying until validate_leaf passes, whose final re-read
  // linearizes the lookup. Returns the stored key equal to k, or nullptr;
  // the caller's pin keeps it alive.
  template <class LK>
  const Key* find(const LK& k) {
    for (;;) {
      const std::uint64_t seq = counter_.load(std::memory_order_seq_cst);
      const SearchResult sr = search(k, seq);
      if (validate_leaf(sr.gp, sr.p, sr.l, k).ok) {
        return less_.equal(sr.l->key, k) ? &sr.l->key.key : nullptr;
      }
      stats_.inc_validate_fails();
    }
  }

  // ValidateLink (Fig. 3, lines 49–59).
  LinkCheck validate_link(Internal* parent, Node* child, bool left) {
    const Update up = parent->load_update();
    if (frozen<Key>(up)) {
      stats_.inc_helps();
      help(up.info());
      return {false, Update{}};
    }
    if (child != parent->load_child(left)) return {false, Update{}};
    return {true, up};
  }

  // ValidateLeaf (Fig. 3, lines 60–68). The final re-read of p->update is
  // the linearization point of Find and of unsuccessful updates.
  template <class LK>
  LeafCheck validate_leaf(Internal* gp, Internal* p, Node* l, const LK& k) {
    Update gpup{};
    const LinkCheck c1 = validate_link(p, l, less_(k, p->key));
    bool validated = c1.ok;
    const Update pup = c1.up;
    if (validated && p != root_) {
      const LinkCheck c2 = validate_link(gp, p, less_(k, gp->key));
      validated = c2.ok;
      gpup = c2.up;
    }
    if (validated) {
      validated = p->load_update() == pup &&
                  (p == root_ || gp->load_update() == gpup);
    }
    return {validated, gpup, pup};
  }

  // --- Update machinery ------------------------------------------------------

  // Execute (Fig. 4, lines 92–106).
  ExecResult execute(Node* const* nodes, const Update* old_up, int n,
                     Internal* par, Node* old_child, Node* new_child,
                     std::uint64_t seq, bool from_delete) {
    for (int i = 0; i < n; ++i) {
      if (frozen<Key>(old_up[i])) {
        if (old_up[i].info()->state_in_progress()) {
          stats_.inc_helps();
          help(old_up[i].info());
        }
        return ExecResult::kFailNotPublished;
      }
    }
    Info* infp = alloc_.template create<Info>();
    stats_.inc_infos_allocated();
    infp->num_nodes = static_cast<std::uint8_t>(n);
    infp->from_delete = from_delete;
    for (int i = 0; i < n; ++i) {
      infp->nodes[i] = nodes[i];
      infp->old_update[i] = old_up[i];
    }
    infp->par = par;
    infp->old_child = old_child;
    infp->new_child = new_child;
    infp->seq = seq;
    infp->reclaim_ctx = reclaimer_;
    infp->retire_fn = &retire_info_thunk;

    infp->ref_acquire();  // pre-increment for the first freeze CAS
    if (nodes[0]->cas_update(old_up[0], Update(FreezeType::kFlag, infp))) {
      release_overwritten(old_up[0]);
      return help(infp) ? ExecResult::kSuccess : ExecResult::kFailPublished;
    }
    // Never published; no other thread can hold it.
    Alloc::template destroy<Info>(infp);
    return ExecResult::kFailNotPublished;
  }

  // Help (Fig. 4, lines 107–128). Callable on any thread's Info.
  bool help(Info* infp) {
    // Handshaking (lines 111–113): abort if the phase moved past ours.
    if (counter_.load(std::memory_order_seq_cst) != infp->seq) {
      InfoState expected = InfoState::kUndecided;
      if (infp->state.compare_exchange_strong(expected, InfoState::kAbort,
                                              std::memory_order_seq_cst)) {
        stats_.inc_handshake_aborts();
      }
    } else {
      InfoState expected = InfoState::kUndecided;
      infp->state.compare_exchange_strong(expected, InfoState::kTry,
                                          std::memory_order_seq_cst);
    }
    bool cont = infp->load_state() == InfoState::kTry;

    // Freeze the remaining nodes in order (lines 115–121).
    for (int i = 1; cont && i < infp->num_nodes; ++i) {
      const FreezeType ft =
          infp->is_marked_index(i) ? FreezeType::kMark : FreezeType::kFlag;
      const Update expected = infp->old_update[i];
      infp->ref_acquire();  // pre-increment (see core/info.h)
      if (infp->nodes[i]->cas_update(expected, Update(ft, infp))) {
        release_overwritten(expected);
      } else {
        release_info(infp);
      }
      cont = infp->nodes[i]->load_update().info() == infp;
    }

    if (cont) {
      const bool swung =
          cas_child(infp->par, infp->old_child, infp->new_child);
      infp->state.store(InfoState::kCommit,
                        std::memory_order_seq_cst);  // commit write
      if (swung) retire_unlinked(infp);
    } else if (infp->load_state() == InfoState::kTry) {
      infp->state.store(InfoState::kAbort,
                        std::memory_order_seq_cst);  // abort write
      stats_.inc_freeze_fail_aborts();
    }
    return infp->load_state() == InfoState::kCommit;
  }

  // CAS-Child (Fig. 3, lines 83–88). Returns whether *our* CAS applied it.
  bool cas_child(Internal* parent, Node* old_child, Node* new_child) {
    const bool go_left = less_(new_child->key, parent->key);
    Node* expected = old_child;
    const bool ok = parent->child(go_left).compare_exchange_strong(
        expected, new_child, std::memory_order_seq_cst);
    if (!ok) stats_.inc_child_cas_failures();
    return ok;
  }

  void help_if_in_progress(Internal* in) {
    const Update up = in->load_update();
    // Quiescent nodes carry a dummy word: the tag bit alone proves
    // nothing is in progress, so traversals skip the Info dereference
    // (one dependent cache-miss load per step on the common path).
    if (up.is_dummy()) return;
    Info* infp = up.info();
    if (!infp->is_dummy && infp->state_in_progress()) {
      stats_.inc_scan_helps();
      help(infp);
    }
  }

  // Nodes an order-free walk keeps in flight (scan_tree). A constant, not a
  // knob: on wide counts 32 measured faster than 16 or 64 (DESIGN.md §2).
  static constexpr std::size_t kScanWindow = 32;

  // ScanHelper (Fig. 4, lines 134–146), iterative, with a window of W node
  // loads in flight. lo/hi may be null for an unbounded scan.
  //
  // Each internal node's children are read right after it is helped, as in
  // Fig. 4, and prefetched as they are pushed on the DFS stack. A node then
  // moves from the stack into a ring of W slots, and only when it leaves
  // the ring, W nodes later, is its version resolved (ReadChild's prev
  // loop), its pending update helped and its children read. So W
  // independent cache misses overlap. The resolved node is the one
  // read_child would have returned at push time, since seq and prev are
  // immutable, and the snapshot's epoch pin keeps every pushed pointer
  // allocated until then.
  //
  // W = 1 for an ordered visitor: the in-order DFS. It emits finite keys in
  // ascending order, and the visitor may return void (visit everything) or
  // bool (false stops the traversal — the emitted keys are then the
  // smallest keys of the range, still a linearizable prefix of the
  // version's range contents). W = kScanWindow for an order-free visitor
  // (kOrderFreeVisitor: a count): every key of the range is emitted once,
  // in no particular order.
  template <class BLo, class BHi, class Visitor>
  void scan_tree(std::uint64_t seq, const BLo* lo, const BHi* hi,
                 Visitor& vis) {
    constexpr bool kOrderFree = kOrderFreeVisitor<Visitor>;
    static_assert(!kOrderFree ||
                  std::is_void_v<std::invoke_result_t<Visitor&, const Key&>>);
    constexpr std::size_t kWindow = kOrderFree ? kScanWindow : 1;
    // The DFS stack lives in this frame. An ordered walk holds about one
    // node per level (23 for a bulk-loaded 1M-key tree); the window's W
    // interleaved descents hold about W times that (482). kScanStackSlots
    // covers every balanced tree without a heap allocation, and only a
    // degenerate tree (a deep spine, or many deep spines side by side for a
    // count) spills past it to the heap. A nested scan (a visitor that
    // scans again) gets its own frame and so its own stack and ring.
    constexpr std::size_t kScanStackSlots = kOrderFree ? 1024 : 64;
    alignas(Node*) std::byte buf[kScanStackSlots * sizeof(Node*)];
    std::pmr::monotonic_buffer_resource arena(buf, sizeof buf);
    std::pmr::vector<Node*> stack(&arena);
    stack.reserve(kScanStackSlots);
    std::array<Node*, kWindow> ring;
    std::size_t head = 0;  // the ring's oldest slot
    std::size_t held = 0;
    stack.push_back(root_);
    for (;;) {
      for (; held < kWindow && !stack.empty(); ++held) {
        ring[(head + held) % kWindow] = stack.back();
        stack.pop_back();
      }
      if (held == 0) return;
      Node* node = ring[head];
      head = (head + 1) % kWindow;
      --held;
      while (node->seq > seq) node = node->prev;
      if (node->is_leaf()) {
        if (node->key.is_finite() &&
            (lo == nullptr || !less_.cmp(node->key.key, *lo)) &&
            (hi == nullptr || !less_.cmp(*hi, node->key.key))) {
          if (!visit_continues(vis, node->key.key)) return;
        }
        continue;
      }
      Internal* in = as_internal(node);
      help_if_in_progress(in);
      const bool skip_left = lo != nullptr && less_(in->key, *lo);   // a > key
      const bool skip_right = hi != nullptr && less_(*hi, in->key);  // b < key
      auto push = [&stack](Node* child) {
        __builtin_prefetch(child);
        stack.push_back(child);
      };
      // Push right before left so an ordered walk visits leaves in key
      // order.
      if (!skip_right) push(in->load_child(false));
      if (!skip_left) push(in->load_child(true));
    }
  }

  // --- Ordered queries -------------------------------------------------------

  // Successor (forward=true: smallest key >= k) or predecessor
  // (forward=false: largest key <= k) in T_seq. Helps in-progress updates
  // along the traversed paths, exactly like ScanHelper.
  template <class LK>
  std::optional<Key> bound_query(std::uint64_t seq, const LK& k,
                                 bool forward) {
    Node* node = root_;
    Internal* pivot = nullptr;  // deepest turn away from the answer side
    while (!node->is_leaf()) {
      Internal* in = as_internal(node);
      help_if_in_progress(in);
      const bool go_left = less_(k, in->key);
      // Successor candidates live right of a left turn; predecessor
      // candidates live left of a right turn.
      if (forward == go_left) pivot = in;
      node = read_child(in, go_left, seq);
    }
    if (node->key.is_finite()) {
      const Key& leaf_key = node->key.key;
      if (forward ? !less_.cmp(leaf_key, k) : !less_.cmp(k, leaf_key)) {
        return leaf_key;
      }
    }
    if (pivot == nullptr) return std::nullopt;
    // Extreme leaf of the candidate subtree: leftmost for successor,
    // rightmost for predecessor.
    Node* cur = read_child(pivot, /*go_left=*/!forward, seq);
    while (!cur->is_leaf()) {
      Internal* in = as_internal(cur);
      help_if_in_progress(in);
      cur = read_child(in, /*go_left=*/forward, seq);
    }
    if (!cur->key.is_finite()) return std::nullopt;
    return cur->key.key;
  }

  // Minimum / maximum finite key of T_seq.
  std::optional<Key> extreme(std::uint64_t seq, bool minimum) {
    if (minimum) {
      Node* cur = root_;
      while (!cur->is_leaf()) {
        Internal* in = as_internal(cur);
        help_if_in_progress(in);
        cur = read_child(in, /*go_left=*/true, seq);
      }
      // The leftmost leaf is the smallest finite key, or ∞1 when empty.
      if (!cur->key.is_finite()) return std::nullopt;
      return cur->key.key;
    }
    // Maximum: inside the root's left subtree, ∞1-keyed internals hide the
    // ∞1 sentinel in their right subtree, so the largest finite key is left
    // of them and right of every finite-keyed internal.
    help_if_in_progress(root_);
    Node* cur = read_child(root_, /*go_left=*/true, seq);
    while (!cur->is_leaf()) {
      Internal* in = as_internal(cur);
      help_if_in_progress(in);
      cur = read_child(in, /*go_left=*/!in->key.is_finite(), seq);
    }
    if (!cur->key.is_finite()) return std::nullopt;
    return cur->key.key;
  }

  // --- Memory management -----------------------------------------------------

  // One immortal dummy Info per instantiation, shared by every tree and
  // never freed. It must outlive every reclaimer, not just this tree:
  // speculative nodes retired on aborted updates still carry the initial
  // dummy update word, and node_deleter() reads is_dummy through it when a
  // shared reclaimer drains its limbo lists after the tree is gone (a
  // per-tree dummy deleted in ~PnbBst was a teardown use-after-free).
  // The record is immutable after construction, so sharing is safe.
  static Info* shared_dummy() {
    static Info* const d = [] {
      Info* i = new Info;
      i->is_dummy = true;
      i->state.store(InfoState::kAbort, std::memory_order_relaxed);
      return i;
    }();
    return d;
  }

  Leaf* make_leaf(const EK& k, std::uint64_t seq, Node* prev) {
    auto* l = alloc_.template create<Leaf>();
    l->key = k;
    l->seq = seq;
    l->prev = prev;
    l->store_update(Update::dummy(dummy_), std::memory_order_relaxed);
    stats_.inc_nodes_allocated();
    return l;
  }

  Internal* make_internal(const EK& k, std::uint64_t seq, Node* prev) {
    auto* in = alloc_.template create<Internal>();
    in->key = k;
    in->seq = seq;
    in->prev = prev;
    in->store_update(Update::dummy(dummy_), std::memory_order_relaxed);
    stats_.inc_nodes_allocated();
    return in;
  }

  // Bulk-build locality hint (ingest/bulk_build.h calls this before each
  // subtree task): ask the allocator for contiguous runs sized for the
  // task's n leaves and n-1 internals, so a cold-loaded subtree lands
  // cache-adjacent in its worker's arena slabs. No-op on HeapAlloc.
  void builder_reserve(std::size_t n_leaves) {
    alloc_.template reserve_run<Leaf>(n_leaves);
    alloc_.template reserve_run<Internal>(n_leaves > 0 ? n_leaves - 1 : 0);
  }

  // Retires the nodes a successful child CAS unlinked: exactly I.mark
  // (insert: the replaced leaf; delete: p, l and sibling). Only the thread
  // whose child CAS succeeded calls this, so each node is retired once.
  void retire_unlinked(Info* infp) {
    for (int i = 1; i < infp->num_nodes; ++i) retire_node(infp->nodes[i]);
  }

  void retire_node(Node* n) {
    stats_.inc_nodes_retired();
    reclaimer_->retire(static_cast<void*>(n), &node_deleter);
  }

  // Deletes a speculative node that was never made visible to any thread.
  void delete_unpublished(Node* n) {
    if (n == nullptr) return;
    stats_.inc_unpublished_frees();
    if (n->is_leaf()) {
      Alloc::template destroy<Leaf>(static_cast<Leaf*>(n));
    } else {
      Alloc::template destroy<Internal>(static_cast<Internal*>(n));
    }
  }

  // Drops a reference on the Info whose installation a freeze CAS just
  // overwrote (or whose node is being freed).
  static void release_overwritten(Update overwritten) {
    release_info(overwritten.info());
  }

  static void release_info(Info* infp) {
    if (infp == nullptr || infp->is_dummy) return;
    if (infp->ref_release()) {
      infp->retire_fn(infp->reclaim_ctx, infp);
    }
  }

  // The deleters below run on the reclaimer's schedule as bare
  // void(*)(void*) thunks — no allocator instance in sight. Alloc::destroy
  // is static and context-free (ArenaAlloc recovers the owning domain from
  // the slab header), which is what makes these expressible at all.
  static void retire_info_thunk(void* ctx, Info* infp) {
    static_cast<R*>(ctx)->retire(static_cast<void*>(infp), [](void* p) {
      Alloc::template destroy<Info>(static_cast<Info*>(p));
    });
  }

  // Final deleter for tree nodes: drops the node's last Info reference.
  static void node_deleter(void* p) {
    Node* n = static_cast<Node*>(p);
    release_info(n->load_update(std::memory_order_relaxed).info());
    if (n->is_leaf()) {
      Alloc::template destroy<Leaf>(static_cast<Leaf*>(n));
    } else {
      Alloc::template destroy<Internal>(static_cast<Internal*>(n));
    }
  }

  // --- Members ---------------------------------------------------------------

  [[no_unique_address]] ExtKeyLess<Key, Compare> less_{};
  R* reclaimer_;
  [[no_unique_address]] Alloc alloc_{};
  Internal* root_ = nullptr;
  Info* dummy_ = nullptr;
  // Phases must stay below 2^63: nodes store theirs in the 63-bit `seq`
  // field beside the type tag (core/node.h).
  alignas(kCacheLine) std::atomic<std::uint64_t> counter_{0};
  Stats stats_{};
};

// The tree models the set surface it is written against (core/concepts.h);
// checked here so any signature drift fails at the definition.
static_assert(OrderedSet<PnbBst<long>, long>);
static_assert(PrefixScannable<PnbBst<long>, long>);
static_assert(ParallelScannable<PnbBst<long>, long>);
static_assert(PhasedSnapshottable<PnbBst<long>>);
static_assert(BatchIngestible<PnbBst<long>>);

}  // namespace pnbbst

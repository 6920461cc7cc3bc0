// NB-BST — the non-blocking binary search tree of Ellen, Fatourou, Ruppert
// and van Breugel (PODC 2010), which PNB-BST builds upon.
//
// Implemented as a baseline: identical leaf-oriented structure and sentinel
// discipline as PNB-BST, but no persistence (no prev/seq fields) and hence
// no linearizable range queries. `range_visit` does a plain traversal and
// is NOT linearizable (it may miss concurrent updates or observe
// half-applied deletes) — exactly the gap the paper fills.
//
// Update-word encoding: 2 low bits of the Info pointer carry the state
// {Clean, IFlag, DFlag, Mark}. IInfo and DInfo are merged into one record
// distinguished by a kind tag. Reclamation mirrors PNB-BST: nodes retired
// at the child CAS that unlinks them; Info records reference-counted by the
// number of update words pointing at them (see core/info.h for the rules).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/concepts.h"
#include "core/keyspace.h"
#include "core/one_shot_queries.h"
#include "core/op_stats.h"
#include "mem/alloc_policy.h"
#include "reclaim/epoch.h"
#include "reclaim/leaky.h"
#include "util/cacheline.h"

namespace pnbbst {

template <class Key, class Compare = std::less<Key>,
          class R = EpochReclaimer, class Stats = NullOpStats,
          class Alloc = mem::HeapAlloc>
class NbBst : public RangeQueries<NbBst<Key, Compare, R, Stats, Alloc>, Key> {
 public:
  using key_type = Key;
  using EK = ExtKey<Key>;
  static constexpr const char* kName =
      Alloc::kIsArena ? "nb-bst-arena" : "nb-bst";
  static constexpr bool kLinearizableScan = false;  // see range_visit

  enum class UState : std::uintptr_t {
    kClean = 0,
    kIFlag = 1,
    kDFlag = 2,
    kMark = 3,
  };

  struct NbInfo;

  // Tagged update word: state in the low 2 bits of the Info pointer.
  class Word {
   public:
    constexpr Word() noexcept : bits_(0) {}
    constexpr explicit Word(std::uintptr_t raw) noexcept : bits_(raw) {}
    Word(UState s, NbInfo* info) noexcept
        : bits_(reinterpret_cast<std::uintptr_t>(info) |
                static_cast<std::uintptr_t>(s)) {}
    UState state() const noexcept {
      return static_cast<UState>(bits_ & 3u);
    }
    NbInfo* info() const noexcept {
      return reinterpret_cast<NbInfo*>(bits_ & ~std::uintptr_t{3});
    }
    std::uintptr_t raw() const noexcept { return bits_; }
    friend bool operator==(Word a, Word b) noexcept {
      return a.bits_ == b.bits_;
    }

   private:
    std::uintptr_t bits_;
  };

  struct Node {
    EK key;
    const bool leaf;
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool is_leaf() const noexcept { return leaf; }
  };

  struct Leaf : Node {
    Leaf() : Node(true) {}
  };

  struct Internal : Node {
    std::atomic<std::uintptr_t> update{0};
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};

    Internal() : Node(false) {}

    Word load_update() const noexcept {
      return Word(update.load(std::memory_order_seq_cst));
    }
    bool cas_update(Word expected, Word desired) noexcept {
      std::uintptr_t e = expected.raw();
      return update.compare_exchange_strong(e, desired.raw(),
                                            std::memory_order_seq_cst);
    }
    std::atomic<Node*>& child(bool go_left) noexcept {
      return go_left ? left : right;
    }
  };

  // Cache-line isolation comes from the arena's size classes (like
  // PnbInfo): slots are rounded to whole cache lines and 64-aligned, so
  // helping CAS traffic on one record never false-shares with a slab
  // neighbor. No alignas here — it would push heap allocations onto the
  // slower over-aligned operator new.
  struct NbInfo {
    enum class Kind : std::uint8_t { kDummy, kInsert, kDelete };
    Kind kind = Kind::kDummy;
    // Insert: p, l, new_internal. Delete: gp, p, l, pupdate.
    Internal* gp = nullptr;
    Internal* p = nullptr;
    Node* l = nullptr;
    Node* new_internal = nullptr;
    Word pupdate{};

    // Lifetime manager — same rules as PnbInfo (core/info.h).
    std::atomic<std::int64_t> live_refs{0};
    std::atomic<bool> retired{false};
    void* reclaim_ctx = nullptr;
    void (*retire_fn)(void* ctx, NbInfo* self) = nullptr;

    bool ref_release() noexcept {
      if (live_refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return false;
      }
      return !retired.exchange(true, std::memory_order_acq_rel);
    }
  };

  explicit NbBst(R& reclaimer = R::shared(), Alloc alloc = Alloc())
      : reclaimer_(&reclaimer), alloc_(alloc) {
    dummy_ = shared_dummy();  // Kind::kDummy; never helped, never released
    root_ = make_internal(EK::inf2());
    root_->left.store(make_leaf(EK::inf1()), std::memory_order_relaxed);
    root_->right.store(make_leaf(EK::inf2()), std::memory_order_relaxed);
  }

  NbBst(const NbBst&) = delete;
  NbBst& operator=(const NbBst&) = delete;

  ~NbBst() {
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (!n->is_leaf()) {
        auto* in = static_cast<Internal*>(n);
        stack.push_back(in->left.load(std::memory_order_relaxed));
        stack.push_back(in->right.load(std::memory_order_relaxed));
      }
      node_deleter(n);
    }
  }

  bool insert(const Key& k) {
    auto guard = reclaimer_->pin();
    for (;;) {
      stats_.inc_attempts();
      const SearchResult sr = search(k);
      if (less_.equal(sr.l->key, k)) return false;
      if (sr.pupdate.state() != UState::kClean) {
        stats_.inc_helps();
        help(sr.pupdate);
        continue;
      }
      Leaf* new_leaf = make_leaf(EK::finite(k));
      Leaf* new_sibling = make_leaf(sr.l->key);
      Internal* new_internal =
          make_internal(less_.max(EK::finite(k), sr.l->key));
      const bool k_left = less_(EK::finite(k), sr.l->key);
      new_internal->left.store(k_left ? static_cast<Node*>(new_leaf)
                                      : static_cast<Node*>(new_sibling),
                               std::memory_order_relaxed);
      new_internal->right.store(k_left ? static_cast<Node*>(new_sibling)
                                       : static_cast<Node*>(new_leaf),
                                std::memory_order_relaxed);
      NbInfo* op = alloc_.template create<NbInfo>();
      stats_.inc_infos_allocated();
      op->kind = NbInfo::Kind::kInsert;
      op->p = sr.p;
      op->l = sr.l;
      op->new_internal = new_internal;
      op->reclaim_ctx = reclaimer_;
      op->retire_fn = &retire_info_thunk;

      op->live_refs.fetch_add(1, std::memory_order_acq_rel);
      if (sr.p->cas_update(sr.pupdate, Word(UState::kIFlag, op))) {
        release_word(sr.pupdate);  // iflag CAS succeeded
        help_insert(op);
        stats_.inc_commits();
        return true;
      }
      // Never published: op and the speculative nodes are still private.
      Alloc::template destroy<NbInfo>(op);
      Alloc::template destroy<Leaf>(new_leaf);
      Alloc::template destroy<Leaf>(new_sibling);
      Alloc::template destroy<Internal>(new_internal);
      stats_.inc_validate_fails();
      stats_.inc_helps();
      help(sr.p->load_update());
    }
  }

  bool erase(const Key& k) {
    auto guard = reclaimer_->pin();
    for (;;) {
      stats_.inc_attempts();
      const SearchResult sr = search(k);
      if (!less_.equal(sr.l->key, k)) return false;
      if (sr.gpupdate.state() != UState::kClean) {
        stats_.inc_helps();
        help(sr.gpupdate);
        continue;
      }
      if (sr.pupdate.state() != UState::kClean) {
        stats_.inc_helps();
        help(sr.pupdate);
        continue;
      }
      NbInfo* op = alloc_.template create<NbInfo>();
      stats_.inc_infos_allocated();
      op->kind = NbInfo::Kind::kDelete;
      op->gp = sr.gp;
      op->p = sr.p;
      op->l = sr.l;
      op->pupdate = sr.pupdate;
      op->reclaim_ctx = reclaimer_;
      op->retire_fn = &retire_info_thunk;

      op->live_refs.fetch_add(1, std::memory_order_acq_rel);
      if (sr.gp->cas_update(sr.gpupdate, Word(UState::kDFlag, op))) {
        release_word(sr.gpupdate);  // dflag CAS succeeded
        if (help_delete(op)) {
          stats_.inc_commits();
          return true;
        }
        stats_.inc_validate_fails();
      } else {
        Alloc::template destroy<NbInfo>(op);  // never published
        stats_.inc_validate_fails();
        stats_.inc_helps();
        help(sr.gp->load_update());
      }
    }
  }

  bool contains(const Key& k) {
    auto guard = reclaimer_->pin();
    const SearchResult sr = search(k);
    return less_.equal(sr.l->key, k);
  }

  // NOT linearizable: a plain traversal of the live tree. Concurrent
  // updates may be missed or doubly observed. Provided only so benchmarks
  // can quantify what the paper's linearizable RangeScan costs. vis
  // returns void (visit all) or bool (false stops); range_scan,
  // range_count and range_first are folds over it (RangeQueries).
  template <class Visitor>
  void range_visit(const Key& lo, const Key& hi, Visitor&& vis) {
    auto guard = reclaimer_->pin();
    stats_.inc_scans();
    std::vector<Node*> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->is_leaf()) {
        if (n->key.is_finite() && !less_.cmp(n->key.key, lo) &&
            !less_.cmp(hi, n->key.key) &&
            !visit_continues(vis, n->key.key)) {
          return;
        }
        continue;
      }
      auto* in = static_cast<Internal*>(n);
      const bool skip_left = less_(in->key, lo);
      const bool skip_right = less_(hi, in->key);
      if (!skip_right) {
        stack.push_back(in->right.load(std::memory_order_seq_cst));
      }
      if (!skip_left) {
        stack.push_back(in->left.load(std::memory_order_seq_cst));
      }
    }
  }

  // Like range_visit, not linearizable.
  std::size_t size() {
    auto guard = reclaimer_->pin();
    std::size_t n = 0;
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* cur = stack.back();
      stack.pop_back();
      if (cur->is_leaf()) {
        if (cur->key.is_finite()) ++n;
        continue;
      }
      auto* in = static_cast<Internal*>(cur);
      stack.push_back(in->left.load(std::memory_order_seq_cst));
      stack.push_back(in->right.load(std::memory_order_seq_cst));
    }
    return n;
  }

  Stats& stats() noexcept { return stats_; }
  Internal* debug_root() noexcept { return root_; }

 private:
  struct SearchResult {
    Internal* gp;
    Internal* p;
    Node* l;
    Word pupdate;
    Word gpupdate;
  };

  SearchResult search(const Key& k) {
    Internal* gp = nullptr;
    Internal* p = nullptr;
    Word gpupdate{}, pupdate{};
    Node* l = root_;
    while (!l->is_leaf()) {
      gp = p;
      gpupdate = pupdate;
      p = static_cast<Internal*>(l);
      pupdate = p->load_update();
      l = p->child(less_(k, p->key)).load(std::memory_order_seq_cst);
    }
    return {gp, p, l, pupdate, gpupdate};
  }

  void help(Word u) {
    switch (u.state()) {
      case UState::kIFlag:
        help_insert(u.info());
        break;
      case UState::kMark:
        help_marked(u.info());
        break;
      case UState::kDFlag:
        help_delete(u.info());
        break;
      case UState::kClean:
        break;
    }
  }

  void help_insert(NbInfo* op) {
    const bool swung = cas_child(op->p, op->l, op->new_internal);
    if (swung) retire_node(op->l);
    // Unflag: same info pointer, no refcount change.
    op->p->cas_update(Word(UState::kIFlag, op), Word(UState::kClean, op));
  }

  bool help_delete(NbInfo* op) {
    // Try to mark p (transition pupdate -> (Mark, op)).
    op->live_refs.fetch_add(1, std::memory_order_acq_rel);
    const bool marked =
        op->p->cas_update(op->pupdate, Word(UState::kMark, op));
    if (marked) {
      release_word(op->pupdate);
    } else {
      release_info(op);  // undo pre-increment
    }
    const Word cur = op->p->load_update();
    if (marked || (cur.state() == UState::kMark && cur.info() == op)) {
      help_marked(op);
      return true;
    }
    stats_.inc_helps();
    help(cur);
    // Backtrack: unflag gp (same info pointer, no refcount change).
    op->gp->cas_update(Word(UState::kDFlag, op), Word(UState::kClean, op));
    return false;
  }

  void help_marked(NbInfo* op) {
    // other := the sibling of op->l.
    Node* right = op->p->right.load(std::memory_order_seq_cst);
    Node* other = right == op->l
                      ? op->p->left.load(std::memory_order_seq_cst)
                      : right;
    const bool swung = cas_child(op->gp, op->p, other);
    if (swung) {
      retire_node(op->p);
      retire_node(op->l);
    }
    op->gp->cas_update(Word(UState::kDFlag, op), Word(UState::kClean, op));
  }

  bool cas_child(Internal* parent, Node* old_child, Node* new_child) {
    const bool go_left = less_(new_child->key, parent->key);
    Node* expected = old_child;
    const bool ok = parent->child(go_left).compare_exchange_strong(
        expected, new_child, std::memory_order_seq_cst);
    if (!ok) stats_.inc_child_cas_failures();
    return ok;
  }

  Leaf* make_leaf(const EK& k) {
    auto* l = alloc_.template create<Leaf>();
    l->key = k;
    stats_.inc_nodes_allocated();
    return l;
  }

  Internal* make_internal(const EK& k) {
    auto* in = alloc_.template create<Internal>();
    in->key = k;
    in->update.store(Word(UState::kClean, dummy_).raw(),
                     std::memory_order_relaxed);
    stats_.inc_nodes_allocated();
    return in;
  }

  // One immortal dummy NbInfo per instantiation, shared by every tree and
  // never freed: retired nodes still carrying the initial dummy word can
  // outlive their tree inside a shared reclaimer's limbo lists, and
  // node_deleter() reads the record's kind through them (mirrors
  // PnbBst::shared_dummy; a per-tree dummy was a teardown use-after-free).
  static NbInfo* shared_dummy() {
    static NbInfo* const d = new NbInfo;  // Kind::kDummy by default
    return d;
  }

  void retire_node(Node* n) {
    stats_.inc_nodes_retired();
    reclaimer_->retire(static_cast<void*>(n), &node_deleter);
  }

  // Releases the reference held by a word that a successful CAS just
  // replaced (only when the info pointer actually changed).
  void release_word(Word overwritten) { release_info(overwritten.info()); }

  static void release_info(NbInfo* op) {
    if (op == nullptr || op->kind == NbInfo::Kind::kDummy) return;
    if (op->ref_release()) op->retire_fn(op->reclaim_ctx, op);
  }

  // Epoch-deleter thunks: static + context-free, so Alloc::destroy must be
  // too (ArenaAlloc recovers the domain from the slab header).
  static void retire_info_thunk(void* ctx, NbInfo* op) {
    static_cast<R*>(ctx)->retire(static_cast<void*>(op), [](void* p) {
      Alloc::template destroy<NbInfo>(static_cast<NbInfo*>(p));
    });
  }

  static void node_deleter(void* p) {
    Node* n = static_cast<Node*>(p);
    if (n->is_leaf()) {
      Alloc::template destroy<Leaf>(static_cast<Leaf*>(n));
    } else {
      auto* in = static_cast<Internal*>(n);
      release_info(Word(in->update.load(std::memory_order_relaxed)).info());
      Alloc::template destroy<Internal>(in);
    }
  }

  [[no_unique_address]] ExtKeyLess<Key, Compare> less_{};
  R* reclaimer_;
  [[no_unique_address]] Alloc alloc_{};
  Internal* root_ = nullptr;
  NbInfo* dummy_ = nullptr;
  Stats stats_{};
};

static_assert(OrderedSet<NbBst<long>, long>);
static_assert(PrefixScannable<NbBst<long>, long>);

}  // namespace pnbbst

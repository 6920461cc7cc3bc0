// LfSkipList — lock-free skip list (Herlihy–Shavit / Fraser style) with
// epoch-based reclamation. Included as the skip-list baseline the paper's
// related work discusses (Avni et al.'s LeapList supports range queries on
// a skip list with weaker progress guarantees; here we provide the classic
// lock-free variant with a non-linearizable best-effort scan, like NbBst).
//
// Algorithm: per-level singly linked lists; each node's per-level `next`
// pointer carries a mark bit (logical deletion). find() snips marked nodes
// as it traverses. insert() links bottom-up; remove() marks top-down and
// wins at the bottom level.
//
// Reclamation note (why this is more than the textbook algorithm): the
// textbook relies on GC. Retiring a node after the remover's find(key)
// pass is UNSAFE under reinsertion: an insert racing with the mark can
// link a new node with the same key in front of the marked one at an upper
// level, after which key-based searches stop at the new node and never
// snip the old one — it stays physically reachable after retirement.
// remove() therefore finishes with an unlink-by-identity sweep
// (ensure_unlinked) that walks each level past equal keys until the exact
// node pointer is unlinked or proven absent.
//
// The sweep alone is not enough either: an insert still linking its index
// levels can link one AFTER the remover swept it. The inserter notices the
// mark and unlinks that level itself, but a traversal pinned in between
// can reach the node. So retirement waits for both parties: the inserter
// once it stops linking, the remover once its sweep is done. Each bumps
// the node's `finished` count, and whichever is second retires the node.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/concepts.h"
#include "core/keyspace.h"
#include "core/one_shot_queries.h"
#include "core/op_stats.h"
#include "reclaim/epoch.h"
#include "reclaim/leaky.h"
#include "util/random.h"

namespace pnbbst {

template <class Key, class Compare = std::less<Key>,
          class R = EpochReclaimer, class Stats = NullOpStats>
class LfSkipList
    : public RangeQueries<LfSkipList<Key, Compare, R, Stats>, Key> {
 public:
  using key_type = Key;
  static constexpr const char* kName = "lf-skiplist";
  static constexpr bool kLinearizableScan = false;  // see range_visit
  static constexpr int kMaxLevel = 20;

  struct Node {
    Key key{};
    int top_level = 0;
    bool is_sentinel = false;
    std::atomic<int> finished{0};  // inserter done + remover done; see top
    std::atomic<std::uintptr_t> next[kMaxLevel] = {};
  };

  explicit LfSkipList(R& reclaimer = R::shared()) : reclaimer_(&reclaimer) {
    head_ = new Node;
    tail_ = new Node;
    head_->is_sentinel = tail_->is_sentinel = true;
    head_->top_level = tail_->top_level = kMaxLevel - 1;
    for (int l = 0; l < kMaxLevel; ++l) {
      head_->next[l].store(pack(tail_, false), std::memory_order_relaxed);
    }
  }

  LfSkipList(const LfSkipList&) = delete;
  LfSkipList& operator=(const LfSkipList&) = delete;

  ~LfSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next =
          n == tail_
              ? nullptr
              : strip(n->next[0].load(std::memory_order_relaxed));
      delete n;
      n = next;
    }
  }

  bool insert(const Key& k) {
    auto guard = reclaimer_->pin();
    const int top = random_level();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      stats_.inc_attempts();
      if (find(k, preds, succs)) return false;
      Node* node = new Node;
      stats_.inc_nodes_allocated();
      node->key = k;
      node->top_level = top;
      for (int l = 0; l <= top; ++l) {
        node->next[l].store(pack(succs[l], false), std::memory_order_relaxed);
      }
      // Publish at the bottom level.
      std::uintptr_t expected = pack(succs[0], false);
      if (!preds[0]->next[0].compare_exchange_strong(
              expected, pack(node, false), std::memory_order_seq_cst)) {
        delete node;  // never visible
        stats_.inc_validate_fails();
        continue;
      }
      // Link the index levels bottom-up.
      for (int l = 1; l <= top; ++l) {
        for (;;) {
          const std::uintptr_t mine =
              node->next[l].load(std::memory_order_seq_cst);
          if (marked(mine)) goto done;  // concurrent remove owns cleanup
          if (strip(mine) != succs[l]) {
            // Refresh our forward pointer to the current successor first.
            std::uintptr_t e = mine;
            if (!node->next[l].compare_exchange_strong(
                    e, pack(succs[l], false), std::memory_order_seq_cst)) {
              goto done;  // just got marked
            }
          }
          std::uintptr_t link_expected = pack(succs[l], false);
          if (preds[l]->next[l].compare_exchange_strong(
                  link_expected, pack(node, false),
                  std::memory_order_seq_cst)) {
            // Re-check the mark AFTER linking: if a remover marked this
            // level concurrently, its cleanup sweep may already have
            // scanned level l and missed our link — unlinking is now our
            // responsibility (we are still pinned, and the remover's
            // finish() alone cannot retire the node).
            if (marked(node->next[l].load(std::memory_order_seq_cst))) {
              ensure_unlinked_level(node, k, l);
              goto done;
            }
            break;
          }
          find(k, preds, succs);  // refresh preds/succs and retry
        }
      }
      stats_.inc_commits();
    done:
      finish(node);  // the inserter is done with the node
      return true;
    }
  }

  bool erase(const Key& k) {
    auto guard = reclaimer_->pin();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    stats_.inc_attempts();
    if (!find(k, preds, succs)) return false;
    Node* node = succs[0];
    // Mark the index levels top-down.
    for (int l = node->top_level; l >= 1; --l) {
      std::uintptr_t cur = node->next[l].load(std::memory_order_seq_cst);
      while (!marked(cur)) {
        if (node->next[l].compare_exchange_weak(cur, cur | 1,
                                                std::memory_order_seq_cst)) {
          break;
        }
      }
    }
    // Whoever marks the bottom level wins the removal.
    for (;;) {
      std::uintptr_t cur = node->next[0].load(std::memory_order_seq_cst);
      if (marked(cur)) {
        // Another remover won; help only if we happened to race — our erase
        // logically failed.
        return false;
      }
      if (node->next[0].compare_exchange_strong(cur, cur | 1,
                                                std::memory_order_seq_cst)) {
        ensure_unlinked(node, k);
        finish(node);
        stats_.inc_commits();
        return true;
      }
    }
  }

  bool contains(const Key& k) {
    auto guard = reclaimer_->pin();
    // Wait-free-ish traversal without snipping (textbook contains()).
    Node* pred = head_;
    Node* curr = nullptr;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      curr = strip(pred->next[l].load(std::memory_order_seq_cst));
      for (;;) {
        const std::uintptr_t raw =
            curr == tail_ ? 0 : curr->next[l].load(std::memory_order_seq_cst);
        if (curr != tail_ && marked(raw)) {
          curr = strip(raw);  // skip marked nodes logically
          continue;
        }
        if (node_less(curr, k)) {
          pred = curr;
          curr = strip(raw);
          continue;
        }
        break;
      }
    }
    return curr != tail_ && !node_less(curr, k) && !key_less(k, curr) &&
           !marked(curr->next[0].load(std::memory_order_seq_cst));
  }

  // NOT linearizable (like NbBst::range_visit): walks the bottom level;
  // concurrent updates may be missed or partially observed. vis returns
  // void (visit all) or bool (false stops); range_scan, range_count and
  // range_first are folds over it (RangeQueries).
  template <class Visitor>
  void range_visit(const Key& lo, const Key& hi, Visitor&& vis) {
    auto guard = reclaimer_->pin();
    stats_.inc_scans();
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(lo, preds, succs);
    Node* curr = succs[0];
    while (curr != tail_ && !key_less(hi, curr)) {
      const std::uintptr_t raw =
          curr->next[0].load(std::memory_order_seq_cst);
      if (!marked(raw) && !visit_continues(vis, curr->key)) return;
      curr = strip(raw);
    }
  }

  // Like range_visit, not linearizable.
  std::size_t size() {
    auto guard = reclaimer_->pin();
    std::size_t n = 0;
    Node* curr = strip(head_->next[0].load(std::memory_order_seq_cst));
    while (curr != tail_) {
      const std::uintptr_t raw =
          curr->next[0].load(std::memory_order_seq_cst);
      n += marked(raw) ? 0 : 1;
      curr = strip(raw);
    }
    return n;
  }

  Stats& stats() noexcept { return stats_; }

 private:
  static Node* strip(std::uintptr_t raw) noexcept {
    return reinterpret_cast<Node*>(raw & ~std::uintptr_t{1});
  }
  static bool marked(std::uintptr_t raw) noexcept { return (raw & 1) != 0; }
  static std::uintptr_t pack(Node* n, bool mark) noexcept {
    return reinterpret_cast<std::uintptr_t>(n) |
           static_cast<std::uintptr_t>(mark);
  }

  bool node_less(const Node* n, const Key& k) const {
    if (n == tail_) return false;
    return cmp_(n->key, k);
  }
  bool key_less(const Key& k, const Node* n) const {
    if (n == tail_) return true;
    return cmp_(k, n->key);
  }

  // Geometric level distribution, p = 1/2.
  int random_level() {
    thread_local Xoshiro256 rng(mix64(
        reinterpret_cast<std::uintptr_t>(this) ^ now_tid_hash()));
    const std::uint64_t r = rng.next();
    int level = 0;
    while ((r >> level & 1) != 0 && level < kMaxLevel - 1) ++level;
    return level;
  }

  static std::uint64_t now_tid_hash() {
    thread_local int anchor = 0;
    return mix64(reinterpret_cast<std::uintptr_t>(&anchor));
  }

  // HS find(): returns whether an unmarked node with key k is at the bottom
  // level; fills preds/succs; snips marked nodes along the search path.
  bool find(const Key& k, Node** preds, Node** succs) {
  retry:
    Node* pred = head_;
    for (int l = kMaxLevel - 1; l >= 0; --l) {
      Node* curr = strip(pred->next[l].load(std::memory_order_seq_cst));
      for (;;) {
        if (curr == tail_) break;
        std::uintptr_t raw = curr->next[l].load(std::memory_order_seq_cst);
        while (marked(raw)) {
          // Snip curr out of level l.
          std::uintptr_t expected = pack(curr, false);
          if (!pred->next[l].compare_exchange_strong(
                  expected, pack(strip(raw), false),
                  std::memory_order_seq_cst)) {
            goto retry;
          }
          curr = strip(pred->next[l].load(std::memory_order_seq_cst));
          if (curr == tail_) break;
          raw = curr->next[l].load(std::memory_order_seq_cst);
        }
        if (curr == tail_ || !node_less(curr, k)) break;
        pred = curr;
        curr = strip(raw);
      }
      preds[l] = pred;
      succs[l] = curr;
    }
    return succs[0] != tail_ && !node_less(succs[0], k) &&
           !key_less(k, succs[0]);
  }

  // Called once by the inserter when it stops linking and once by the
  // winning remover after its sweep; the second call retires the node.
  void finish(Node* node) {
    if (node->finished.fetch_add(1, std::memory_order_acq_rel) == 1) {
      reclaimer_->retire(static_cast<void*>(node), [](void* p) {
        delete static_cast<Node*>(p);
      });
    }
  }

  // Unlink-by-identity: guarantees `node` is physically unreachable at
  // every level before returning (see file comment for why key-based
  // find() is insufficient). Walks level l past nodes with keys <= k until
  // it meets `node` itself (unlink it), a larger key, or the tail.
  void ensure_unlinked(Node* node, const Key& k) {
    for (int l = node->top_level; l >= 0; --l) {
      ensure_unlinked_level(node, k, l);
    }
  }

  void ensure_unlinked_level(Node* node, const Key& k, int l) {
  retry_level:
    Node* pred = head_;
    std::uintptr_t pred_raw = pred->next[l].load(std::memory_order_seq_cst);
    for (;;) {
      Node* curr = strip(pred_raw);
      if (curr == tail_) return;                 // absent at this level
      if (curr == node) {
        if (marked(pred_raw)) {
          // pred itself is marked: its pointer is frozen; restart from the
          // head, snipping pred on the way through.
          goto retry_level;
        }
        const std::uintptr_t succ_raw =
            node->next[l].load(std::memory_order_seq_cst);
        std::uintptr_t expected = pack(node, false);
        if (!pred->next[l].compare_exchange_strong(
                expected, pack(strip(succ_raw), false),
                std::memory_order_seq_cst)) {
          goto retry_level;
        }
        return;                                  // unlinked at this level
      }
      if (key_less(k, curr)) return;             // passed k: absent here
      // Advance; snip other marked nodes to make progress.
      const std::uintptr_t curr_raw =
          curr->next[l].load(std::memory_order_seq_cst);
      if (marked(curr_raw) && !marked(pred_raw)) {
        std::uintptr_t expected = pack(curr, false);
        if (!pred->next[l].compare_exchange_strong(
                expected, pack(strip(curr_raw), false),
                std::memory_order_seq_cst)) {
          goto retry_level;
        }
        pred_raw = pred->next[l].load(std::memory_order_seq_cst);
        continue;
      }
      pred = curr;
      pred_raw = curr_raw;
    }
  }

  [[no_unique_address]] Compare cmp_{};
  R* reclaimer_;
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  Stats stats_{};
};

static_assert(OrderedSet<LfSkipList<long>, long>);
static_assert(PrefixScannable<LfSkipList<long>, long>);

}  // namespace pnbbst

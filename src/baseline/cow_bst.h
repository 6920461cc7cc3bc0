// CowBst — copy-on-write (path-copying) persistent BST with an atomic root.
//
// The design the paper contrasts with (§2, Prokopec et al.'s persistent
// ctrie): every update copies the whole root-to-leaf path and CASes the
// root pointer; readers and range scans grab the current root and traverse
// an immutable snapshot (wait-free scans, like PNB-BST). The costs the
// paper predicts: (a) O(depth) copying per update even when no scan is
// running, (b) every update contends on the single root word.
//
// Reclamation: the replaced path (not the shared subtrees) is retired
// through the epoch reclaimer on a successful root swap; failed attempts
// free their private copies directly.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "core/concepts.h"
#include "core/keyspace.h"
#include "core/one_shot_queries.h"
#include "core/op_stats.h"
#include "reclaim/epoch.h"
#include "reclaim/leaky.h"
#include "util/cacheline.h"

namespace pnbbst {

template <class Key, class Compare = std::less<Key>,
          class R = EpochReclaimer, class Stats = NullOpStats>
class CowBst : public RangeQueries<CowBst<Key, Compare, R, Stats>, Key> {
 public:
  using key_type = Key;
  using EK = ExtKey<Key>;
  static constexpr const char* kName = "cow-bst";
  static constexpr bool kLinearizableScan = true;  // snapshot at root load

  struct Node {
    EK key;
    Node* left = nullptr;  // immutable after publication; null iff leaf
    Node* right = nullptr;
    bool is_leaf() const noexcept { return left == nullptr; }
  };

  explicit CowBst(R& reclaimer = R::shared()) : reclaimer_(&reclaimer) {
    root_.store(make_node(EK::inf2(), make_node(EK::inf1()),
                          make_node(EK::inf2())),
                std::memory_order_relaxed);
  }

  CowBst(const CowBst&) = delete;
  CowBst& operator=(const CowBst&) = delete;

  ~CowBst() {
    // Quiescent. The current version is a tree except where subtrees are
    // shared with retired paths — within one version sharing cannot occur,
    // so a plain DFS free is safe.
    std::vector<Node*> stack{root_.load(std::memory_order_relaxed)};
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (!n->is_leaf()) {
        stack.push_back(n->left);
        stack.push_back(n->right);
      }
      delete n;
    }
  }

  bool insert(const Key& k) { return update(k, /*is_insert=*/true); }
  bool erase(const Key& k) { return update(k, /*is_insert=*/false); }

  bool contains(const Key& k) {
    auto guard = reclaimer_->pin();
    const Node* n = root_.load(std::memory_order_seq_cst);
    while (!n->is_leaf()) {
      n = less_(k, n->key) ? n->left : n->right;
    }
    return less_.equal(n->key, k);
  }

  // Wait-free, linearizable at the root load. vis returns void (visit all)
  // or bool (false stops); range_scan, range_count and range_first are
  // folds over it (RangeQueries).
  template <class Visitor>
  void range_visit(const Key& lo, const Key& hi, Visitor&& vis) {
    auto guard = reclaimer_->pin();
    stats_.inc_scans();
    std::vector<const Node*> stack{root_.load(std::memory_order_seq_cst)};
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      if (n->is_leaf()) {
        if (n->key.is_finite() && !less_.cmp(n->key.key, lo) &&
            !less_.cmp(hi, n->key.key) &&
            !visit_continues(vis, n->key.key)) {
          return;
        }
        continue;
      }
      if (!less_(hi, n->key)) stack.push_back(n->right);
      if (!less_(n->key, lo)) stack.push_back(n->left);
    }
  }

  std::size_t size() {
    auto guard = reclaimer_->pin();
    std::size_t n = 0;
    std::vector<const Node*> stack{root_.load(std::memory_order_seq_cst)};
    while (!stack.empty()) {
      const Node* cur = stack.back();
      stack.pop_back();
      if (cur->is_leaf()) {
        n += cur->key.is_finite() ? 1 : 0;
        continue;
      }
      stack.push_back(cur->left);
      stack.push_back(cur->right);
    }
    return n;
  }

  Stats& stats() noexcept { return stats_; }

 private:
  bool update(const Key& k, bool is_insert) {
    auto guard = reclaimer_->pin();
    std::vector<Node*> path;   // internal nodes, root first
    std::vector<Node*> fresh;  // nodes allocated by this attempt
    for (;;) {
      stats_.inc_attempts();
      path.clear();
      fresh.clear();
      Node* old_root = root_.load(std::memory_order_seq_cst);

      Node* l = old_root;
      while (!l->is_leaf()) {
        path.push_back(l);
        l = less_(k, l->key) ? l->left : l->right;
      }
      const bool present = less_.equal(l->key, k);
      if (is_insert && present) return false;
      if (!is_insert && !present) return false;

      // Build the replacement for the leaf position.
      Node* replacement = nullptr;
      std::size_t copy_from;
      if (is_insert) {
        Node* new_leaf = make_node(EK::finite(k));
        Node* new_sibling = make_node(l->key);
        const bool k_left = less_(EK::finite(k), l->key);
        replacement = make_node(less_.max(EK::finite(k), l->key),
                                k_left ? new_leaf : new_sibling,
                                k_left ? new_sibling : new_leaf);
        fresh.push_back(new_leaf);
        fresh.push_back(new_sibling);
        fresh.push_back(replacement);
        copy_from = path.size();
      } else {
        // Delete: l's parent is replaced by l's sibling subtree. With the
        // ∞ sentinels a finite leaf is never a direct child of the root,
        // so the parent always has a grandparent to hang the sibling on.
        Node* parent = path.back();
        replacement = less_(k, parent->key) ? parent->right : parent->left;
        copy_from = path.size() - 1;
      }

      // Path-copy everything above the replacement point.
      Node* child = replacement;
      for (std::size_t i = copy_from; i-- > 0;) {
        Node* cur = path[i];
        const bool went_left = less_(k, cur->key);
        child = make_node(cur->key, went_left ? child : cur->left,
                          went_left ? cur->right : child);
        fresh.push_back(child);
      }
      Node* new_root = child;

      if (root_.compare_exchange_strong(old_root, new_root,
                                        std::memory_order_seq_cst)) {
        for (std::size_t i = 0; i < copy_from; ++i) retire(path[i]);
        if (!is_insert) retire(path.back());  // the spliced-out parent
        retire(l);
        stats_.inc_commits();
        return true;
      }

      // Lost the root race: the attempt's nodes were never shared.
      for (Node* n : fresh) delete n;
      stats_.inc_validate_fails();
    }
  }

  Node* make_node(const EK& k, Node* left = nullptr, Node* right = nullptr) {
    auto* n = new Node{k, left, right};
    stats_.inc_nodes_allocated();
    return n;
  }

  void retire(Node* n) {
    reclaimer_->retire(static_cast<void*>(n),
                       [](void* p) { delete static_cast<Node*>(p); });
  }

  [[no_unique_address]] ExtKeyLess<Key, Compare> less_{};
  R* reclaimer_;
  alignas(kCacheLine) std::atomic<Node*> root_;
  Stats stats_{};
};

static_assert(OrderedSet<CowBst<long>, long>);
static_assert(PrefixScannable<CowBst<long>, long>);

}  // namespace pnbbst

// LockedBst — blocking baseline: the same leaf-oriented BST shape guarded
// by a single std::shared_mutex.
//
// Finds and range scans take the lock shared; inserts and deletes take it
// exclusive. Range scans are trivially linearizable (they exclude all
// updates), which is exactly the behaviour the paper argues against: scans
// block updates (and vice versa) for their whole duration. Used in Fig.E1–E4
// to show the blocking/wait-free contrast.
#pragma once

#include <functional>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/concepts.h"
#include "core/keyspace.h"
#include "core/one_shot_queries.h"
#include "core/op_stats.h"

namespace pnbbst {

template <class Key, class Compare = std::less<Key>, class Stats = NullOpStats>
class LockedBst
    : public RangeQueries<LockedBst<Key, Compare, Stats>, Key> {
 public:
  using key_type = Key;
  using EK = ExtKey<Key>;
  static constexpr const char* kName = "locked-bst";
  static constexpr bool kLinearizableScan = true;  // blocking

  struct Node {
    EK key;
    Node* left = nullptr;   // null iff leaf
    Node* right = nullptr;
    bool is_leaf() const noexcept { return left == nullptr; }
  };

  LockedBst() {
    root_ = new Node{EK::inf2(), new Node{EK::inf1()}, new Node{EK::inf2()}};
  }

  LockedBst(const LockedBst&) = delete;
  LockedBst& operator=(const LockedBst&) = delete;

  ~LockedBst() {
    std::vector<Node*> stack{root_};
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

  bool insert(const Key& k) {
    std::unique_lock lock(mutex_);
    stats_.inc_attempts();
    auto [p, l] = descend(k);
    if (less_.equal(l->key, k)) return false;
    Node* new_leaf = new Node{EK::finite(k)};
    Node* new_sibling = new Node{l->key};
    const bool k_left = less_(EK::finite(k), l->key);
    Node* internal = new Node{less_.max(EK::finite(k), l->key),
                              k_left ? new_leaf : new_sibling,
                              k_left ? new_sibling : new_leaf};
    child_of(p, k) = internal;
    delete l;
    stats_.inc_commits();
    return true;
  }

  bool erase(const Key& k) {
    std::unique_lock lock(mutex_);
    stats_.inc_attempts();
    Node* gp = nullptr;
    Node* p = root_;
    Node* l = child_of(p, k);
    while (!l->is_leaf()) {
      gp = p;
      p = l;
      l = child_of(p, k);
    }
    if (!less_.equal(l->key, k)) return false;
    Node* sibling = (l == p->left) ? p->right : p->left;
    if (gp == nullptr) {
      // p is the root; with the ∞ sentinel structure a finite leaf is never
      // a direct child of the root, so this is unreachable for finite k.
      return false;
    }
    (gp->left == p ? gp->left : gp->right) = sibling;
    delete p;
    delete l;
    stats_.inc_commits();
    return true;
  }

  bool contains(const Key& k) {
    std::shared_lock lock(mutex_);
    auto [p, l] = descend(k);
    (void)p;
    return less_.equal(l->key, k);
  }

  // vis returns void (visit all) or bool (false stops); range_scan,
  // range_count and range_first are folds over it (RangeQueries).
  template <class Visitor>
  void range_visit(const Key& lo, const Key& hi, Visitor&& vis) {
    std::shared_lock lock(mutex_);
    stats_.inc_scans();
    std::vector<Node*> stack{root_};
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
      if (!less_(hi, n->key)) stack.push_back(n->right);
      if (!less_(n->key, lo)) stack.push_back(n->left);
    }
  }

  std::size_t size() {
    std::shared_lock lock(mutex_);
    std::size_t n = 0;
    std::vector<Node*> stack{root_};
    while (!stack.empty()) {
      Node* cur = stack.back();
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
  // Walks to the leaf for k; returns (parent, leaf).
  std::pair<Node*, Node*> descend(const Key& k) {
    Node* p = root_;
    Node* l = child_of(p, k);
    while (!l->is_leaf()) {
      p = l;
      l = child_of(p, k);
    }
    return {p, l};
  }

  Node*& child_of(Node* p, const Key& k) {
    return less_(k, p->key) ? p->left : p->right;
  }

  [[no_unique_address]] ExtKeyLess<Key, Compare> less_{};
  mutable std::shared_mutex mutex_;
  Node* root_;
  Stats stats_{};
};

static_assert(OrderedSet<LockedBst<long>, long>);
static_assert(PrefixScannable<LockedBst<long>, long>);

}  // namespace pnbbst

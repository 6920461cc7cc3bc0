// White-box tests of the freeze/Info state machine, inspecting node update
// words and Info records directly (quiescent). These pin down the proof's
// low-level invariants:
//   - committed updates leave their Info in state Commit,
//   - marked (removed) nodes stay marked forever (Lemma 23),
//   - nodes in the current tree are never frozen at quiescence,
//   - new nodes carry the phase that created them (seq field discipline),
//   - prev pointers record exactly the replaced node,
//   - the serving map's records fit one-line nodes and two-line Infos.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "core/validate.h"
#include "util/random.h"

namespace pnbbst {
namespace {

// Leaky reclaimer so removed nodes stay inspectable.
using Tree = PnbBst<long, std::less<long>, LeakyReclaimer>;
using Node = Tree::Node;
using Internal = Tree::Internal;
using Update = Tree::Update;

// Collects every node reachable via child+prev edges (leaky domains only).
std::vector<Node*> all_nodes(Tree& t) {
  std::set<Node*> seen;
  std::vector<Node*> stack{t.debug_root()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr || seen.count(n)) continue;
    seen.insert(n);
    if (!n->is_leaf()) {
      auto* in = as_internal(n);
      stack.push_back(in->left.load(std::memory_order_relaxed));
      stack.push_back(in->right.load(std::memory_order_relaxed));
    }
    stack.push_back(n->prev);
  }
  return {seen.begin(), seen.end()};
}

// Nodes of the current version (child edges only).
std::set<Node*> current_nodes(Tree& t) {
  std::set<Node*> out;
  std::vector<Node*> stack{t.debug_root()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    out.insert(n);
    if (!n->is_leaf()) {
      auto* in = as_internal(n);
      stack.push_back(in->left.load(std::memory_order_relaxed));
      stack.push_back(in->right.load(std::memory_order_relaxed));
    }
  }
  return out;
}

TEST(Whitebox, InitialTreeShape) {
  LeakyReclaimer dom;
  Tree t(dom);
  Internal* root = t.debug_root();
  EXPECT_EQ(root->key.cls, KeyClass::kInf2);
  EXPECT_EQ(root->seq, 0u);
  EXPECT_EQ(root->prev, nullptr);
  Node* l = root->left.load();
  Node* r = root->right.load();
  ASSERT_TRUE(l->is_leaf());
  ASSERT_TRUE(r->is_leaf());
  EXPECT_EQ(l->key.cls, KeyClass::kInf1);
  EXPECT_EQ(r->key.cls, KeyClass::kInf2);
  // All three initial nodes are flagged with the dummy (state Abort).
  for (Node* n : {static_cast<Node*>(root), l, r}) {
    const Update u = n->load_update();
    EXPECT_TRUE(u.is_flag());
    EXPECT_TRUE(u.info()->is_dummy);
    EXPECT_EQ(u.info()->load_state(), InfoState::kAbort);
  }
}

TEST(Whitebox, CommittedInsertLeavesCommitState) {
  LeakyReclaimer dom;
  Tree t(dom);
  ASSERT_TRUE(t.insert(7));
  Internal* root = t.debug_root();
  // root was flagged by the insert's Execute; its Info must be committed.
  const Update u = root->load_update();
  ASSERT_FALSE(u.info()->is_dummy);
  EXPECT_TRUE(u.is_flag());
  EXPECT_EQ(u.info()->load_state(), InfoState::kCommit);
  EXPECT_FALSE(u.info()->from_delete);
  EXPECT_FALSE(frozen<long>(u));  // Flag+Commit is not frozen
}

TEST(Whitebox, ReplacedLeafIsMarkedForever) {
  LeakyReclaimer dom;
  Tree t(dom);
  Internal* root = t.debug_root();
  Node* old_leaf = root->left.load();  // ∞1 leaf, will be replaced
  ASSERT_TRUE(t.insert(7));
  // The replaced leaf must be permanently marked by the committed Info.
  const Update u = old_leaf->load_update();
  EXPECT_TRUE(u.is_mark());
  EXPECT_EQ(u.info()->load_state(), InfoState::kCommit);
  EXPECT_TRUE(frozen<long>(u));  // Mark+Commit stays frozen (Lemma 23)
  // And the replacement records it as prev.
  Node* replacement = root->left.load();
  EXPECT_EQ(replacement->prev, old_leaf);
  EXPECT_NE(replacement, old_leaf);
}

TEST(Whitebox, DeleteMarksParentLeafAndSibling) {
  LeakyReclaimer dom;
  Tree t(dom);
  ASSERT_TRUE(t.insert(10));
  ASSERT_TRUE(t.insert(20));
  // Snapshot the nodes that the delete of 20 will retire: p, l, sibling.
  const auto before = current_nodes(t);
  ASSERT_TRUE(t.erase(20));
  const auto after = current_nodes(t);
  std::vector<Node*> removed;
  for (Node* n : before) {
    if (!after.count(n)) removed.push_back(n);
  }
  // Exactly three nodes leave the current version (p, l, sibling).
  ASSERT_EQ(removed.size(), 3u);
  for (Node* n : removed) {
    const Update u = n->load_update();
    EXPECT_TRUE(u.is_mark()) << "removed node not marked";
    EXPECT_EQ(u.info()->load_state(), InfoState::kCommit);
    EXPECT_TRUE(u.info()->from_delete);
  }
}

TEST(Whitebox, QuiescentCurrentTreeIsUnfrozen) {
  LeakyReclaimer dom;
  Tree t(dom);
  Xoshiro256 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const long k = static_cast<long>(rng.next_bounded(100));
    if (rng.next_bounded(2)) {
      t.insert(k);
    } else {
      t.erase(k);
    }
  }
  for (Node* n : current_nodes(t)) {
    EXPECT_FALSE(frozen<long>(n->load_update()))
        << "current-version node frozen at quiescence";
  }
}

TEST(Whitebox, SeqFieldsTrackPhases) {
  LeakyReclaimer dom;
  Tree t(dom);
  t.insert(1);                    // phase 0
  t.range_count(0, 10);           // bump to phase 1
  t.insert(2);                    // phase 1
  t.range_count(0, 10);           // bump to phase 2
  t.insert(3);                    // phase 2
  std::uint64_t max_seq = 0;
  for (Node* n : all_nodes(t)) max_seq = std::max(max_seq, n->seq);
  EXPECT_EQ(max_seq, 2u);         // newest nodes belong to phase 2
  EXPECT_EQ(t.phase(), 2u);       // Observation 3: seq <= Counter
}

// The serving map's records (int64 -> int64, a 24-byte ExtKey<MapEntry>)
// fill whole cache lines: the type tag rides in `seq`'s top bit, so an
// internal node is one line with both children beside its key, and the
// Info's `retired` latch sits in header padding, so an Info is two lines.
TEST(Whitebox, ServingRecordsFitWholeCacheLines) {
  using Entry = MapEntry<std::int64_t, std::int64_t>;
  static_assert(sizeof(ExtKey<Entry>) == 24);
  EXPECT_EQ(sizeof(PnbInternal<Entry>), 64u);
  EXPECT_LE(sizeof(PnbLeaf<Entry>), 64u);
  EXPECT_LE(sizeof(PnbInfo<Entry>), 128u);
  EXPECT_LE(sizeof(PnbInternal<std::int64_t>), 64u);
}

TEST(Whitebox, TypeTagSurvivesLargestPhase) {
  constexpr std::uint64_t kMaxPhase = (std::uint64_t{1} << 63) - 1;
  PnbLeaf<long> leaf;
  PnbInternal<long> internal;
  EXPECT_EQ(leaf.seq, 0u);
  EXPECT_EQ(internal.seq, 0u);
  // Assigned after construction, as make_leaf/make_internal do.
  leaf.seq = kMaxPhase;
  internal.seq = kMaxPhase;
  EXPECT_EQ(leaf.seq, kMaxPhase);
  EXPECT_EQ(internal.seq, kMaxPhase);
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_FALSE(internal.is_leaf());
  // Lowering the phase again clears no tag bit either.
  leaf.seq = 1;
  internal.seq = 1;
  EXPECT_EQ(leaf.seq, 1u);
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_FALSE(internal.is_leaf());
}

TEST(Whitebox, PrevChainsRecordHistory) {
  LeakyReclaimer dom;
  Tree t(dom);
  t.insert(5);
  Internal* root = t.debug_root();
  Node* v1 = root->left.load();   // subtree created by insert(5)
  t.range_count(0, 10);           // new phase so T_0 stays intact
  t.erase(5);
  Node* v2 = root->left.load();   // replacement installed by the delete
  ASSERT_NE(v1, v2);
  // The delete's replacement copies the sibling and prev-links the parent.
  EXPECT_EQ(v2->prev, v1);
  EXPECT_GT(v2->seq, v1->seq);
}

TEST(Whitebox, InfoRecordsFreezeSetShape) {
  LeakyReclaimer dom;
  Tree t(dom);
  t.insert(10);
  t.insert(20);
  t.erase(20);
  Internal* root = t.debug_root();
  // Tree shape: root(∞2) -> I1(∞1) -> { I2(20){10,20}, ∞1 }; erasing 20 has
  // gp = I1, which the delete's Execute flagged.
  auto* gp = as_internal(root->left.load());
  const Update u = gp->load_update();
  ASSERT_FALSE(u.info()->is_dummy);
  ASSERT_TRUE(u.info()->from_delete);
  EXPECT_EQ(u.info()->num_nodes, 4);  // gp, p, l, sibling
  EXPECT_EQ(u.info()->nodes[0], static_cast<Node*>(gp));
  // oldChild is the parent (index 1), and is in the marked set.
  EXPECT_EQ(u.info()->old_child, u.info()->nodes[1]);
  EXPECT_TRUE(u.info()->is_marked_index(1));
  // The child CAS's newChild (the sibling copy) hangs under gp now.
  EXPECT_EQ(u.info()->new_child, gp->left.load());
}

TEST(Whitebox, FailedUpdateLeavesNoTrace) {
  LeakyReclaimer dom;
  Tree t(dom);
  t.insert(1);
  const auto nodes_before = all_nodes(t).size();
  EXPECT_FALSE(t.insert(1));  // duplicate: no Execute, no freeze
  EXPECT_FALSE(t.erase(2));   // absent: no Execute, no freeze
  EXPECT_EQ(all_nodes(t).size(), nodes_before);
}

}  // namespace
}  // namespace pnbbst

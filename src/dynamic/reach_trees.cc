#include "dynamic/reach_trees.h"

namespace tcdb {

ReachTree::ReachTree(NodeId root, const LiveAdjacency& adj, bool forward,
                     uint64_t* membership, int bit)
    : root_(root),
      forward_(forward),
      membership_(membership),
      parent_(static_cast<size_t>(adj.num_nodes()), kAbsent),
      children_(static_cast<size_t>(adj.num_nodes())) {
  TCDB_CHECK(root >= 0 && root < adj.num_nodes());
  TCDB_CHECK(bit >= 0 && bit < 64);
  bit_ = uint64_t{1} << bit;
  affected_.Resize(static_cast<size_t>(adj.num_nodes()));
  parent_[static_cast<size_t>(root)] = root;
  if (membership_ != nullptr) membership_[static_cast<size_t>(root)] |= bit_;
  size_ = 1;
  rescue_frontier_.clear();
  rescue_frontier_.push_back(root);
  for (size_t head = 0; head < rescue_frontier_.size(); ++head) {
    const NodeId x = rescue_frontier_[head];
    for (const NodeId y : Expand(adj, x)) {
      if (Contains(y)) continue;
      Attach(y, x);
      rescue_frontier_.push_back(y);
    }
  }
  rescue_frontier_.clear();
}

int64_t ReachTree::OnArcInserted(NodeId src, NodeId dst,
                                 const LiveAdjacency& adj,
                                 int64_t* attached) {
  // In tree orientation the new arc runs tail -> head.
  const NodeId tail = forward_ ? src : dst;
  const NodeId head = forward_ ? dst : src;
  if (!Contains(tail) || Contains(head)) return 0;
  // The tree grows by exactly the nodes newly reachable through `head`.
  int64_t cost = 1;
  int64_t added = 1;
  Attach(head, tail);
  rescue_frontier_.clear();
  rescue_frontier_.push_back(head);
  for (size_t i = 0; i < rescue_frontier_.size(); ++i) {
    const NodeId x = rescue_frontier_[i];
    for (const NodeId y : Expand(adj, x)) {
      ++cost;
      if (Contains(y)) continue;
      Attach(y, x);
      ++added;
      rescue_frontier_.push_back(y);
    }
  }
  rescue_frontier_.clear();
  if (attached != nullptr) *attached += added;
  return cost;
}

int64_t ReachTree::OnArcDeleted(NodeId src, NodeId dst,
                                const LiveAdjacency& adj,
                                int64_t* detached) {
  const NodeId tail = forward_ ? src : dst;
  const NodeId head = forward_ ? dst : src;
  // Only the certificate arcs matter: a non-tree arc backed no membership.
  if (parent_[static_cast<size_t>(head)] != tail ||
      head == root_) {  // the root's self-parent is not an arc
    return 0;
  }

  // Phase 1: detach `head` from its parent and collect its subtree S —
  // exactly the nodes whose certificates ran through the deleted arc.
  auto& tail_children = children_[static_cast<size_t>(tail)];
  for (size_t i = 0; i < tail_children.size(); ++i) {
    if (tail_children[i] == head) {
      tail_children[i] = tail_children.back();
      tail_children.pop_back();
      break;
    }
  }
  affected_.ClearAll();
  subtree_.clear();
  subtree_.push_back(head);
  affected_.Insert(static_cast<size_t>(head));
  for (size_t i = 0; i < subtree_.size(); ++i) {
    for (const NodeId c : children_[static_cast<size_t>(subtree_[i])]) {
      affected_.Insert(static_cast<size_t>(c));
      subtree_.push_back(c);
    }
  }
  // All tree links inside S are about to be rewritten (or dropped).
  for (const NodeId s : subtree_) {
    parent_[static_cast<size_t>(s)] = kAbsent;
    children_[static_cast<size_t>(s)].clear();
    if (membership_ != nullptr) {
      membership_[static_cast<size_t>(s)] &= ~bit_;
    }
  }
  size_ -= static_cast<int64_t>(subtree_.size());

  // Phase 2: rescue. A node of S survives iff some live path from the
  // intact tree region reaches it. Every such path enters S through an
  // anchor arc whose tail is in-tree and outside S (or an already rescued
  // S node — Contains covers both), so one anchor scan per S node plus a
  // flood along live arcs inside S restores exactly the still-reachable
  // part. What the flood never touches is provably unreachable: drop it.
  int64_t cost = static_cast<int64_t>(subtree_.size());
  rescue_frontier_.clear();
  for (const NodeId s : subtree_) {
    for (const NodeId w : Anchors(adj, s)) {
      ++cost;
      if (!Contains(w)) continue;
      Attach(s, w);
      rescue_frontier_.push_back(s);
      break;
    }
  }
  for (size_t i = 0; i < rescue_frontier_.size(); ++i) {
    const NodeId x = rescue_frontier_[i];
    for (const NodeId y : Expand(adj, x)) {
      ++cost;
      if (!affected_.Contains(static_cast<size_t>(y)) || Contains(y)) {
        continue;
      }
      Attach(y, x);
      rescue_frontier_.push_back(y);
    }
  }
  if (detached != nullptr) {
    for (const NodeId s : subtree_) {
      if (!Contains(s)) ++*detached;
    }
  }
  rescue_frontier_.clear();
  return cost;
}

}  // namespace tcdb

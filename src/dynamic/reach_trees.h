#ifndef TCDB_DYNAMIC_REACH_TREES_H_
#define TCDB_DYNAMIC_REACH_TREES_H_

#include <cstdint>
#include <vector>

#include "dynamic/live_adjacency.h"
#include "graph/digraph.h"
#include "util/bit_vector.h"

namespace tcdb {

// One single-source reachability tree over the live graph, maintained
// exactly under single-arc insert and delete (Hanauer–Henzinger style
// supportive-vertex structure). The tree is a certificate: a node is in
// the tree iff it is reachable from the root in the current graph, and
// parent_[v] names a live arc from an in-tree node. Orientation is the
// caller's choice — a forward tree expands along out-rows and scans
// in-rows for delete-repair anchors; a backward tree is the same tree on
// the transposed graph (swap the rows and flip every arc before calling).
//
// Insert (u, v) with u in-tree and v absent extends the tree by a BFS
// from v (membership only grows). Deleting a non-tree arc is free — no
// certificate used it. Deleting the tree arc (u, v) triggers the
// affected-subtree repair: collect v's subtree S, then rescue each s in S
// that has an anchor arc from a surviving in-tree node, flood the rescue
// through S along live arcs, and drop whatever remains (membership only
// shrinks — a delete can never add reachability, so nodes outside S are
// untouched).
//
// Membership can be mirrored bit-sliced: given `membership` (one word per
// node) and a bit, the tree keeps that bit of membership[v] equal to
// Contains(v) — set in Attach, cleared where a delete unlinks v — so an
// owner of up to 64 trees reads all of their memberships of a node in one
// load (IncrementalIndex::Decide).
//
// Thread safety: none; owned by the mutation/query thread like the rest
// of the dynamic stack's mutable state.
class ReachTree {
 public:
  // Builds the tree by BFS from `root` over `expand` rows (out-rows of
  // the original orientation for a forward tree). A non-null
  // `membership` (adj.num_nodes() words, outliving the tree) receives the
  // tree's membership in bit `bit` (0..63); the bit must be clear on
  // every node beforehand.
  ReachTree(NodeId root, const LiveAdjacency& adj, bool forward,
            uint64_t* membership = nullptr, int bit = 0);

  NodeId root() const { return root_; }
  bool forward() const { return forward_; }
  bool Contains(NodeId v) const {
    return parent_[static_cast<size_t>(v)] != kAbsent;
  }
  int64_t size() const { return size_; }

  // Arc (src, dst) in the ORIGINAL graph orientation, already applied to
  // `adj`. Returns the repair cost (arcs scanned); 0 when no certificate
  // changed. `attached`, when non-null, accumulates nodes added.
  int64_t OnArcInserted(NodeId src, NodeId dst, const LiveAdjacency& adj,
                        int64_t* attached = nullptr);

  // Arc (src, dst) in the ORIGINAL orientation, already removed from
  // `adj`. Returns the repair cost; 0 when the arc was not a tree arc.
  // `detached`, when non-null, accumulates nodes dropped from the tree.
  int64_t OnArcDeleted(NodeId src, NodeId dst, const LiveAdjacency& adj,
                       int64_t* detached = nullptr);

 private:
  static constexpr NodeId kAbsent = -1;

  const std::vector<NodeId>& Expand(const LiveAdjacency& adj,
                                    NodeId v) const {
    return forward_ ? adj.Out(v) : adj.In(v);
  }
  const std::vector<NodeId>& Anchors(const LiveAdjacency& adj,
                                     NodeId v) const {
    return forward_ ? adj.In(v) : adj.Out(v);
  }

  void Attach(NodeId child, NodeId parent) {
    parent_[static_cast<size_t>(child)] = parent;
    children_[static_cast<size_t>(parent)].push_back(child);
    if (membership_ != nullptr) {
      membership_[static_cast<size_t>(child)] |= bit_;
    }
    ++size_;
  }

  NodeId root_ = 0;
  bool forward_ = true;
  int64_t size_ = 0;
  // The mirrored membership words and this tree's bit in them (null: no
  // mirror).
  uint64_t* membership_ = nullptr;
  uint64_t bit_ = 0;
  // parent_[v]: kAbsent when v is unreachable from the root; root_ for
  // the root itself; otherwise the tree predecessor, joined to v by a
  // live arc.
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;

  // Repair scratch (reused across deletes).
  EpochSet affected_;
  std::vector<NodeId> subtree_;
  std::vector<NodeId> rescue_frontier_;
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_REACH_TREES_H_

#ifndef TCDB_DYNAMIC_INCREMENTAL_H_
#define TCDB_DYNAMIC_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/reach_trees.h"
#include "graph/digraph.h"
#include "reach/reach_index.h"
#include "util/status.h"

namespace tcdb {

struct IncrementalOptions {
  // Supportive pivot vertices, at most IncrementalIndex::kMaxPivots (64:
  // one bit of a membership word each). Each pivot maintains one forward
  // and one backward reachability tree over the live graph, giving one
  // positive rule and two negative rules per pivot (plus exact decisions
  // whenever the query endpoint IS a pivot), all of them decided by one
  // word operation over every pivot at once. 0 disables the tier outright.
  int32_t num_pivots = 8;
  // Pivot candidates evaluated per slot (best forward x backward
  // coverage on the base graph wins). Higher = better pivots, slower
  // build.
  int32_t pivot_candidates_per_slot = 4;
  // Explicit pivots — used verbatim (duplicates collapse), overriding
  // num_pivots and the candidate search; at most kMaxPivots distinct. For
  // tests that need to aim deletions at a known tree, and for benchmarks
  // that want build determinism.
  std::vector<NodeId> pinned_pivots;
  // Rebuild policy: once the cumulative repair cost (arcs scanned by
  // tree maintenance) since the last snapshot adoption exceeds
  // rebuild_cost_ratio * (n + m), incremental repair is estimated to be
  // losing to a from-scratch ReachCore build and rebuild_advised() turns
  // on until the next adoption. <= 0 never advises.
  double rebuild_cost_ratio = 4.0;
  // Candidate-draw determinism.
  uint64_t seed = 0x1cebeef;
};

// Maintenance counters of the incremental tier (owner-thread mutable,
// mirrored into DynamicStats by the service).
struct IncrementalStats {
  int64_t inserts_applied = 0;
  int64_t deletes_applied = 0;
  // Repairs that actually changed a tree: insert extensions and
  // affected-subtree delete repairs (a mutation may repair several
  // trees; each counts once).
  int64_t tree_extensions = 0;
  int64_t subtree_repairs = 0;
  int64_t nodes_attached = 0;
  int64_t nodes_detached = 0;
  // Arcs scanned by all repairs — the unit the rebuild policy budgets.
  int64_t repair_arc_scans = 0;
  // Times the repair-cost estimate crossed the rebuild budget (one per
  // adoption interval at most).
  int64_t rebuilds_advised = 0;

  int64_t repairs() const { return tree_extensions + subtree_repairs; }
};

// The incremental-decided tier: k <= 64 supportive pivots, each with an
// exact forward and backward reachability tree over the live graph,
// repaired in place on every single-arc insert and delete
// (Hanauer–Henzinger, "Faster Fully Dynamic Transitive Closure in
// Practice") and consulted as a battery of observations in the O'Reach
// style:
//
//   YES  u in bwd(p) and v in fwd(p)        (u -> p -> v)
//   NO   u in fwd(p) and v not in fwd(p)    (v would be in p's cone)
//   NO   v in bwd(p) and u not in bwd(p)    (u would be in p's co-cone)
//
// Membership is bit-sliced: fwd_bits_[v] holds bit i iff v is in pivot
// i's forward tree, bwd_bits_[v] iff v is in its backward tree (each
// ReachTree mirrors its own bit), so Decide evaluates every pivot's
// rules at once from four words. A pivot lies in both of its own trees,
// which makes the rules exact whenever u or v IS a pivot: p = u either
// reaches v (YES through p) or not (NO, the first cut). Every rule is
// exact on the live graph at the current epoch — unlike the frozen
// snapshot there is no staleness to account for — so a kYes/kNo verdict
// is final (the rules can never disagree), only kUnknown falls through
// to the live BFS, and that BFS may use Decide(y, v) to prune (kNo) or
// finish (kYes) at any node y it reaches.
//
// The index reads the MutationLog's LiveAdjacency by reference; it keeps
// no copy of the graph.
//
// Thread safety: mutations and Decide belong to the owner thread.
// rebuild_advised() is the one cross-thread read (the background
// IndexRebuilder polls it), backed by an atomic.
class IncrementalIndex {
 public:
  // Pivots per index: one bit of a membership word each.
  static constexpr int32_t kMaxPivots = 64;

  // Builds the pivot trees over `adj`, which must outlive the index and
  // is the graph every later call reads. Without pinned pivots, every
  // slot draws pivot_candidates_per_slot nodes and keeps the untaken draw
  // of largest forward x backward cone product (ties to the earlier
  // draw); the cones of all draws are sized by one bit-parallel sweep per
  // 64 candidates and direction, and only the winners get trees. The
  // caller validates the options (DynamicReachService::Create returns
  // InvalidArgument): num_pivots and the distinct pinned pivots are at
  // most kMaxPivots and pinned pivots lie in [0, adj.num_nodes()).
  static std::unique_ptr<IncrementalIndex> Build(
      const LiveAdjacency& adj, const IncrementalOptions& options = {});

  // Mutation hooks — called after the arc was applied to the adjacency
  // (the MutationLog accepted it, so range, no self-loop and membership
  // already hold).
  void OnInsert(NodeId src, NodeId dst);
  void OnDelete(NodeId src, NodeId dst);

  // Every pivot's rules on the live graph at once; kUnknown for the
  // residue.
  // The backward trees are the ancestor words and the forward trees the
  // descendant words of ReachIndex::DecideByWords.
  ReachIndex::Verdict Decide(NodeId u, NodeId v) const {
    return ReachIndex::DecideByWords(
        bwd_bits_[static_cast<size_t>(u)], fwd_bits_[static_cast<size_t>(u)],
        bwd_bits_[static_cast<size_t>(v)], fwd_bits_[static_cast<size_t>(v)]);
  }

  // True once the repair cost since the last adoption exceeds the
  // rebuild budget. Safe from any thread.
  bool rebuild_advised() const {
    return rebuild_advised_.load(std::memory_order_relaxed);
  }

  // Owner thread, on snapshot adoption: the rebuild the budget was
  // saving up for has happened — reset the accumulator and the advise
  // flag. (The trees themselves never depend on the snapshot; they
  // already track the live graph exactly.)
  void OnSnapshotAdopted();

  const IncrementalStats& stats() const { return stats_; }
  const std::vector<NodeId>& pivots() const { return pivots_; }
  NodeId num_nodes() const { return adj_.num_nodes(); }
  // Tree introspection for tests: forward/backward membership of pivot
  // slot `i`, from its tree's certificate.
  bool InForwardTree(int32_t i, NodeId v) const {
    return fwd_[static_cast<size_t>(i)]->Contains(v);
  }
  bool InBackwardTree(int32_t i, NodeId v) const {
    return bwd_[static_cast<size_t>(i)]->Contains(v);
  }
  // The membership words Decide reads: bit i of ForwardMembership(v) is
  // InForwardTree(i, v), likewise backward.
  uint64_t ForwardMembership(NodeId v) const {
    return fwd_bits_[static_cast<size_t>(v)];
  }
  uint64_t BackwardMembership(NodeId v) const {
    return bwd_bits_[static_cast<size_t>(v)];
  }

 private:
  IncrementalIndex(const LiveAdjacency& adj,
                   const IncrementalOptions& options)
      : options_(options),
        adj_(adj),
        fwd_bits_(static_cast<size_t>(adj.num_nodes()), 0),
        bwd_bits_(static_cast<size_t>(adj.num_nodes()), 0) {}

  void ChargeRepair(int64_t cost);

  IncrementalOptions options_;
  const LiveAdjacency& adj_;
  std::vector<NodeId> pivots_;
  std::vector<std::unique_ptr<ReachTree>> fwd_;
  std::vector<std::unique_ptr<ReachTree>> bwd_;
  // Bit i: membership in pivot i's forward (backward) tree, one word per
  // node, kept by the trees themselves.
  std::vector<uint64_t> fwd_bits_;
  std::vector<uint64_t> bwd_bits_;

  IncrementalStats stats_;
  int64_t repair_cost_since_adopt_ = 0;
  std::atomic<bool> rebuild_advised_{false};
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_INCREMENTAL_H_

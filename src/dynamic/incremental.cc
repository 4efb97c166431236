#include "dynamic/incremental.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/random.h"

namespace tcdb {

std::unique_ptr<IncrementalIndex> IncrementalIndex::Build(
    const LiveAdjacency& adj, const IncrementalOptions& options) {
  auto index =
      std::unique_ptr<IncrementalIndex>(new IncrementalIndex(adj, options));
  const NodeId num_nodes = adj.num_nodes();

  std::unordered_set<NodeId> taken;
  if (!options.pinned_pivots.empty()) {
    for (const NodeId p : options.pinned_pivots) {
      TCDB_CHECK(p >= 0 && p < num_nodes) << "pinned pivot out of range";
      if (taken.insert(p).second) index->pivots_.push_back(p);
    }
  } else {
    // Greedy coverage selection, like ReachIndex: per slot, draw a few
    // candidates and keep the one whose forward x backward cone product
    // is largest — those decide the most pairs through the YES rule and
    // carve the biggest negative cuts.
    const int32_t slots =
        std::min<int32_t>(options.num_pivots, num_nodes);
    Rng rng(options.seed);
    for (int32_t slot = 0; slot < slots; ++slot) {
      NodeId best = -1;
      int64_t best_score = -1;
      const int32_t draws =
          std::max<int32_t>(1, options.pivot_candidates_per_slot);
      for (int32_t d = 0; d < draws; ++d) {
        const NodeId c =
            static_cast<NodeId>(rng.Uniform(0, num_nodes - 1));
        if (taken.contains(c)) continue;
        const ReachTree fwd(c, index->adj_, /*forward=*/true);
        const ReachTree bwd(c, index->adj_, /*forward=*/false);
        const int64_t score = fwd.size() * bwd.size();
        if (score > best_score) {
          best = c;
          best_score = score;
        }
      }
      if (best < 0) continue;  // every draw collided with a taken pivot
      taken.insert(best);
      index->pivots_.push_back(best);
    }
  }

  for (const NodeId p : index->pivots_) {
    index->fwd_.push_back(
        std::make_unique<ReachTree>(p, index->adj_, /*forward=*/true));
    index->bwd_.push_back(
        std::make_unique<ReachTree>(p, index->adj_, /*forward=*/false));
  }
  return index;
}

void IncrementalIndex::OnInsert(NodeId src, NodeId dst) {
  ++stats_.inserts_applied;
  int64_t cost = 0;
  for (size_t i = 0; i < pivots_.size(); ++i) {
    const int64_t f =
        fwd_[i]->OnArcInserted(src, dst, adj_, &stats_.nodes_attached);
    const int64_t b =
        bwd_[i]->OnArcInserted(src, dst, adj_, &stats_.nodes_attached);
    if (f > 0) ++stats_.tree_extensions;
    if (b > 0) ++stats_.tree_extensions;
    cost += f + b;
  }
  ChargeRepair(cost);
}

void IncrementalIndex::OnDelete(NodeId src, NodeId dst) {
  ++stats_.deletes_applied;
  int64_t cost = 0;
  for (size_t i = 0; i < pivots_.size(); ++i) {
    const int64_t f =
        fwd_[i]->OnArcDeleted(src, dst, adj_, &stats_.nodes_detached);
    const int64_t b =
        bwd_[i]->OnArcDeleted(src, dst, adj_, &stats_.nodes_detached);
    if (f > 0) ++stats_.subtree_repairs;
    if (b > 0) ++stats_.subtree_repairs;
    cost += f + b;
  }
  ChargeRepair(cost);
}

ReachIndex::Verdict IncrementalIndex::Decide(NodeId u, NodeId v) const {
  for (size_t i = 0; i < pivots_.size(); ++i) {
    const ReachTree& fwd = *fwd_[i];
    const ReachTree& bwd = *bwd_[i];
    // A pivot endpoint is decided outright: its tree IS the exact
    // reachable set (co-set) on the live graph.
    if (u == pivots_[i]) {
      return fwd.Contains(v) ? ReachIndex::Verdict::kYes
                             : ReachIndex::Verdict::kNo;
    }
    if (v == pivots_[i]) {
      return bwd.Contains(u) ? ReachIndex::Verdict::kYes
                             : ReachIndex::Verdict::kNo;
    }
    // u -> p -> v.
    if (bwd.Contains(u) && fwd.Contains(v)) return ReachIndex::Verdict::kYes;
    // p reaches u but not v: a u ~> v path would put v in p's cone.
    if (fwd.Contains(u) && !fwd.Contains(v)) return ReachIndex::Verdict::kNo;
    // v reaches p but u does not: a u ~> v path would chain u to p.
    if (bwd.Contains(v) && !bwd.Contains(u)) return ReachIndex::Verdict::kNo;
  }
  return ReachIndex::Verdict::kUnknown;
}

void IncrementalIndex::ChargeRepair(int64_t cost) {
  stats_.repair_arc_scans += cost;
  repair_cost_since_adopt_ += cost;
  if (options_.rebuild_cost_ratio <= 0 ||
      rebuild_advised_.load(std::memory_order_relaxed)) {
    return;
  }
  const double budget =
      options_.rebuild_cost_ratio *
      static_cast<double>(static_cast<int64_t>(adj_.num_nodes()) +
                          adj_.num_arcs());
  if (static_cast<double>(repair_cost_since_adopt_) > budget) {
    ++stats_.rebuilds_advised;
    rebuild_advised_.store(true, std::memory_order_relaxed);
  }
}

void IncrementalIndex::OnSnapshotAdopted() {
  repair_cost_since_adopt_ = 0;
  rebuild_advised_.store(false, std::memory_order_relaxed);
}

}  // namespace tcdb

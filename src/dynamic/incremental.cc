#include "dynamic/incremental.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "util/random.h"

namespace tcdb {

namespace {

// Adds to sizes[j] the forward (or backward) cone size of candidates[j],
// for up to 64 distinct candidates at once: word[v] gathers bit j when
// candidates[j] reaches v (v reaches candidates[j]). A FIFO worklist
// pushes a node's word along its rows until no word grows, so a cyclic
// live graph needs no condensation; a node is requeued only after its
// word grew, so at most 65 times.
void AddConeSizes(const LiveAdjacency& adj, bool forward,
                  std::span<const NodeId> candidates, int64_t* sizes) {
  TCDB_CHECK(candidates.size() <= 64);
  const size_t n = static_cast<size_t>(adj.num_nodes());
  std::vector<uint64_t> word(n, 0);
  std::vector<uint8_t> queued(n, 0);
  // A node is queued at most once at a time, so n slots never overflow.
  std::vector<NodeId> ring(n);
  size_t head = 0;
  size_t queue_size = 0;
  const auto push = [&](NodeId v) {
    if (queued[static_cast<size_t>(v)] != 0) return;
    queued[static_cast<size_t>(v)] = 1;
    ring[(head + queue_size++) % n] = v;
  };
  for (size_t j = 0; j < candidates.size(); ++j) {
    word[static_cast<size_t>(candidates[j])] |= uint64_t{1} << j;
    push(candidates[j]);
  }
  while (queue_size > 0) {
    const NodeId x = ring[head];
    head = (head + 1) % n;
    --queue_size;
    queued[static_cast<size_t>(x)] = 0;
    const uint64_t w = word[static_cast<size_t>(x)];
    for (const NodeId y : forward ? adj.Out(x) : adj.In(x)) {
      uint64_t& wy = word[static_cast<size_t>(y)];
      if ((w & ~wy) == 0) continue;
      wy |= w;
      push(y);
    }
  }
  for (uint64_t w : word) {
    for (; w != 0; w &= w - 1) ++sizes[std::countr_zero(w)];
  }
}

}  // namespace

std::unique_ptr<IncrementalIndex> IncrementalIndex::Build(
    const LiveAdjacency& adj, const IncrementalOptions& options) {
  auto index =
      std::unique_ptr<IncrementalIndex>(new IncrementalIndex(adj, options));
  const NodeId num_nodes = adj.num_nodes();

  std::vector<uint8_t> taken(static_cast<size_t>(num_nodes), 0);
  if (!options.pinned_pivots.empty()) {
    for (const NodeId p : options.pinned_pivots) {
      TCDB_CHECK(p >= 0 && p < num_nodes) << "pinned pivot out of range";
      if (taken[static_cast<size_t>(p)] == 0) {
        taken[static_cast<size_t>(p)] = 1;
        index->pivots_.push_back(p);
      }
    }
    TCDB_CHECK(index->pivots_.size() <= static_cast<size_t>(kMaxPivots))
        << "more than " << kMaxPivots << " pinned pivots";
  } else {
    // Greedy coverage selection, like ReachIndex: per slot, draw a few
    // candidates and keep the one whose forward x backward cone product
    // is largest — those decide the most pairs through the YES rule and
    // carve the biggest negative cuts. The draws do not depend on the
    // scores, so all of them are drawn first and their cones sized
    // together; the slots are then filled draw by draw.
    TCDB_CHECK(options.num_pivots <= kMaxPivots)
        << "more than " << kMaxPivots << " pivots";
    const int32_t slots = std::min<int32_t>(options.num_pivots, num_nodes);
    const int32_t draws =
        std::max<int32_t>(1, options.pivot_candidates_per_slot);
    std::vector<NodeId> drawn;
    Rng rng(options.seed);
    for (int64_t i = 0; i < static_cast<int64_t>(slots) * draws; ++i) {
      drawn.push_back(static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)));
    }
    // The distinct draws in first-draw order; candidate_of[v] indexes v.
    std::vector<int32_t> candidate_of(static_cast<size_t>(num_nodes), -1);
    std::vector<NodeId> candidates;
    for (const NodeId c : drawn) {
      if (candidate_of[static_cast<size_t>(c)] >= 0) continue;
      candidate_of[static_cast<size_t>(c)] =
          static_cast<int32_t>(candidates.size());
      candidates.push_back(c);
    }
    std::vector<int64_t> fwd_size(candidates.size(), 0);
    std::vector<int64_t> bwd_size(candidates.size(), 0);
    for (size_t b = 0; b < candidates.size(); b += 64) {
      const std::span<const NodeId> batch = std::span(candidates).subspan(
          b, std::min<size_t>(64, candidates.size() - b));
      AddConeSizes(adj, /*forward=*/true, batch, &fwd_size[b]);
      AddConeSizes(adj, /*forward=*/false, batch, &bwd_size[b]);
    }
    for (int32_t slot = 0; slot < slots; ++slot) {
      NodeId best = -1;
      int64_t best_score = -1;
      for (int32_t d = 0; d < draws; ++d) {
        const NodeId c = drawn[static_cast<size_t>(slot) * draws + d];
        if (taken[static_cast<size_t>(c)] != 0) continue;
        const size_t i =
            static_cast<size_t>(candidate_of[static_cast<size_t>(c)]);
        const int64_t score = fwd_size[i] * bwd_size[i];
        if (score > best_score) {
          best = c;
          best_score = score;
        }
      }
      if (best < 0) continue;  // every draw collided with a taken pivot
      taken[static_cast<size_t>(best)] = 1;
      index->pivots_.push_back(best);
    }
  }

  for (size_t i = 0; i < index->pivots_.size(); ++i) {
    const NodeId p = index->pivots_[i];
    index->fwd_.push_back(std::make_unique<ReachTree>(
        p, index->adj_, /*forward=*/true, index->fwd_bits_.data(),
        static_cast<int>(i)));
    index->bwd_.push_back(std::make_unique<ReachTree>(
        p, index->adj_, /*forward=*/false, index->bwd_bits_.data(),
        static_cast<int>(i)));
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

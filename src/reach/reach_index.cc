#include "reach/reach_index.h"

#include <algorithm>
#include <string>

namespace tcdb {

namespace {

// The min(64, n) nodes of largest (out-degree + 1) * (in-degree + 1),
// ties to the smaller id, in that order.
std::vector<NodeId> TopHubs(const Digraph& dag, const Digraph& reversed) {
  std::vector<NodeId> hubs(static_cast<size_t>(dag.NumNodes()));
  for (NodeId v = 0; v < dag.NumNodes(); ++v) hubs[v] = v;
  const size_t count =
      std::min<size_t>(hubs.size(), ReachIndex::kNumRoots);
  const auto score = [&](NodeId v) {
    return static_cast<int64_t>(dag.OutDegree(v) + 1) *
           (reversed.OutDegree(v) + 1);
  };
  std::partial_sort(hubs.begin(), hubs.begin() + count, hubs.end(),
                    [&](NodeId a, NodeId b) {
                      const int64_t score_a = score(a);
                      const int64_t score_b = score(b);
                      return score_a != score_b ? score_a > score_b : a < b;
                    });
  hubs.resize(count);
  return hubs;
}

}  // namespace

Result<ReachIndex> ReachIndex::Build(const Digraph& dag) {
  const NodeId n = dag.NumNodes();
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId s : dag.Successors(v)) {
      if (s >= v) {
        return Status::InvalidArgument(
            "reach index needs reverse-topological ids, but arc (" +
            std::to_string(v) + ", " + std::to_string(s) +
            ") does not run to a lower id");
      }
    }
  }
  ReachIndex index;
  index.n_ = n;
  index.reversed_ = dag.Reversed();
  index.roots_ = TopHubs(dag, index.reversed_);
  index.words_.assign(static_cast<size_t>(n), RootWords{});
  HugeVector<RootWords>& words = index.words_;
  for (size_t i = 0; i < index.roots_.size(); ++i) {
    words[index.roots_[i]].anc |= uint64_t{1} << i;
    words[index.roots_[i]].desc |= uint64_t{1} << i;
  }
  // Descending ids are a topological order: a node passes its desc word to
  // its successors once every predecessor has passed it theirs, and
  // gathers its successors' anc words once each of them is complete.
  for (NodeId x = n - 1; x >= 0; --x) {
    const uint64_t w = words[x].desc;
    if (w == 0) continue;
    for (const NodeId s : dag.Successors(x)) words[s].desc |= w;
  }
  for (NodeId x = 0; x < n; ++x) {
    uint64_t w = words[x].anc;
    for (const NodeId s : dag.Successors(x)) w |= words[s].anc;
    words[x].anc = w;
  }
  return index;
}

bool ReachIndex::Search(const Digraph& dag, NodeId u, NodeId v,
                        SearchScratch* scratch, int64_t* expansions) const {
  TCDB_DCHECK(dag.NumNodes() == n_);
  if (expansions != nullptr) *expansions = 0;
  if (u == v) return true;
  SearchScratch& s = *scratch;
  if (s.fwd_seen.capacity() != static_cast<size_t>(n_)) {
    s.fwd_seen.Resize(static_cast<size_t>(n_));
    s.bwd_seen.Resize(static_cast<size_t>(n_));
  }
  s.fwd_seen.ClearAll();
  s.bwd_seen.ClearAll();
  s.fwd_seen.Insert(static_cast<size_t>(u));
  s.bwd_seen.Insert(static_cast<size_t>(v));
  s.fwd.assign(1, u);
  s.bwd.assign(1, v);
  int64_t expanded = 0;
  // Expands one level of a side; true once a path u ~> v is found.
  const auto expand = [&](bool forward) {
    std::vector<NodeId>& frontier = forward ? s.fwd : s.bwd;
    EpochSet& seen = forward ? s.fwd_seen : s.bwd_seen;
    const EpochSet& other = forward ? s.bwd_seen : s.fwd_seen;
    const Digraph& graph = forward ? dag : reversed_;
    s.next.clear();
    for (const NodeId w : frontier) {
      ++expanded;
      for (const NodeId x : graph.Successors(w)) {
        if (other.Contains(static_cast<size_t>(x))) return true;
        if (!seen.InsertIfAbsent(static_cast<size_t>(x))) continue;
        // x lies on a u ~> v path only if u reaches x and x reaches v.
        const Verdict verdict = forward ? TryDecide(x, v) : TryDecide(u, x);
        if (verdict == Verdict::kYes) return true;
        if (verdict == Verdict::kUnknown) s.next.push_back(x);
      }
    }
    frontier.swap(s.next);
    return false;
  };
  bool found = false;
  while (!found && !s.fwd.empty() && !s.bwd.empty()) {
    found = expand(s.fwd.size() <= s.bwd.size());
  }
  if (expansions != nullptr) *expansions = expanded;
  return found;
}

}  // namespace tcdb

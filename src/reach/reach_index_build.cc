// ReachIndex::Build: the label construction. The queries and the image
// live in reach_index.cc, a unit small enough that the compiler inlines
// the per-node label rules into the pruned searches.

#include "reach/reach_index.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "graph/algorithms.h"
#include "scale/topo_order.h"
#include "util/random.h"

namespace tcdb {

namespace {

// The oreach observations' sizes: extra topological orders, cuts per
// direction, trained pivots, the candidate pool the trainer evaluates, and
// the synthetic uniform sample it trains on when no traffic is given.
constexpr int32_t kExtraOrders = 3;
constexpr int32_t kCutsPerDirection = 3;
constexpr int32_t kTrainedPivots = 12;
constexpr int32_t kCandidatePool = 48;
// One cone sweep sizes the whole trained pool.
static_assert(kTrainedPivots <= kCandidatePool && kCandidatePool <= 64);
constexpr int64_t kSyntheticSample = 4096;
// Seeds the extra orders, the cut cones and the synthetic sample; the
// stream tags give each of them a disjoint pseudo-random stream.
constexpr uint64_t kObservationSeed = 2026;
constexpr uint64_t kOrderStream = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kCutStream = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kSampleStream = 0x94d049bb133111ebULL;

// The forward and backward cones of up to 64 pivot candidates at once,
// bit-sliced: bit j of fwd[v] is set iff candidates[j] reaches v (itself
// included), bit j of bwd[v] iff v reaches candidates[j]. One pass over a
// topological order per direction ORs a node's word into its successors
// (forward) or gathers its successors' words (backward), so sizing a pool
// of candidates costs one O(n + m) word sweep per 64 of them instead of
// two searches each.
struct ConeWords {
  std::vector<uint64_t> fwd;
  std::vector<uint64_t> bwd;
  // Forward x backward cone size per candidate: the traffic-free count of
  // pairs it can decide.
  std::vector<int64_t> coverage;
};

ConeWords SweepCones(const Digraph& dag, std::span<const NodeId> order,
                     std::span<const NodeId> candidates) {
  TCDB_CHECK(candidates.size() <= 64);
  const size_t n = static_cast<size_t>(dag.NumNodes());
  ConeWords cones;
  cones.fwd.assign(n, 0);
  cones.bwd.assign(n, 0);
  for (size_t j = 0; j < candidates.size(); ++j) {
    cones.fwd[candidates[j]] |= uint64_t{1} << j;
    cones.bwd[candidates[j]] |= uint64_t{1} << j;
  }
  for (const NodeId x : order) {
    const uint64_t w = cones.fwd[x];
    if (w == 0) continue;
    for (const NodeId s : dag.Successors(x)) cones.fwd[s] |= w;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint64_t w = cones.bwd[*it];
    for (const NodeId s : dag.Successors(*it)) w |= cones.bwd[s];
    cones.bwd[*it] = w;
  }
  std::vector<int64_t> fwd_size(candidates.size(), 0);
  std::vector<int64_t> bwd_size(candidates.size(), 0);
  for (size_t v = 0; v < n; ++v) {
    for (uint64_t w = cones.fwd[v]; w != 0; w &= w - 1) {
      ++fwd_size[std::countr_zero(w)];
    }
    for (uint64_t w = cones.bwd[v]; w != 0; w &= w - 1) {
      ++bwd_size[std::countr_zero(w)];
    }
  }
  cones.coverage.resize(candidates.size());
  for (size_t j = 0; j < candidates.size(); ++j) {
    cones.coverage[j] = fwd_size[j] * bwd_size[j];
  }
  return cones;
}

// Bit `bit` of every node's cone word, as an n-bit set.
BitVector ConeBits(const std::vector<uint64_t>& words, int bit) {
  std::vector<uint64_t> bits((words.size() + 63) / 64, 0);
  for (size_t v = 0; v < words.size(); ++v) {
    bits[v >> 6] |= ((words[v] >> bit) & 1) << (v & 63);
  }
  return BitVector::FromWords(words.size(), std::move(bits));
}

// The `count` nodes of largest (out-degree + 1) * (in-degree + 1), ties
// to the smaller id, in that order.
std::vector<NodeId> TopHubs(const Digraph& dag, const Digraph& reversed,
                            int64_t count) {
  std::vector<NodeId> hubs(static_cast<size_t>(dag.NumNodes()));
  for (NodeId v = 0; v < dag.NumNodes(); ++v) hubs[v] = v;
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
  hubs.resize(static_cast<size_t>(count));
  return hubs;
}

// Longest-path levels over `order`, a topological order of `dag`. Forward:
// arcs strictly raise the level, so fwd[u] >= fwd[v] refutes u ~> v.
// Backward (longest path to a sink) symmetrically.
void LongestPathLevels(const Digraph& dag, std::span<const NodeId> order,
                       std::vector<int32_t>* fwd, std::vector<int32_t>* bwd) {
  fwd->assign(static_cast<size_t>(dag.NumNodes()), 0);
  bwd->assign(static_cast<size_t>(dag.NumNodes()), 0);
  for (const NodeId v : order) {
    for (const NodeId s : dag.Successors(v)) {
      (*fwd)[s] = std::max((*fwd)[s], (*fwd)[v] + 1);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (const NodeId s : dag.Successors(*it)) {
      (*bwd)[*it] = std::max((*bwd)[*it], (*bwd)[s] + 1);
    }
  }
}

// A negative cut over `graph`: a union of forward cones from random roots
// is successor-closed (everything reachable from a member is a member), so
// u inside and v outside refutes u ~> v; over the reversed graph it is
// predecessor-closed, the dual. The cut grows toward half the graph — that
// maximizes |C| * (n - |C|), the number of pairs it can kill — but skips
// cones that would take it past ~7n/8.
BitVector GrowCut(const Digraph& graph, uint64_t seed) {
  const NodeId n = graph.NumNodes();
  const int64_t target = n / 2;
  const int64_t overshoot_cap = n - n / 8;
  Rng rng(seed);
  BitVector cut;
  cut.Resize(static_cast<size_t>(n));
  EpochSet visiting(static_cast<size_t>(n));
  std::vector<NodeId> stack;
  std::vector<NodeId> cone;
  int64_t size = 0;
  int32_t misses = 0;
  while (size < target && misses < 16) {
    const NodeId root = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (cut.Test(static_cast<size_t>(root))) {
      ++misses;
      continue;
    }
    // Measure the cone before committing: DFS pruned at nodes the cut
    // already contains (their cones are already inside).
    cone.assign(1, root);
    stack.assign(1, root);
    visiting.ClearAll();
    visiting.Insert(static_cast<size_t>(root));
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId s : graph.Successors(v)) {
        if (cut.Test(static_cast<size_t>(s)) ||
            visiting.Contains(static_cast<size_t>(s))) {
          continue;
        }
        visiting.Insert(static_cast<size_t>(s));
        cone.push_back(s);
        stack.push_back(s);
      }
    }
    if (size + static_cast<int64_t>(cone.size()) > overshoot_cap) {
      ++misses;
      continue;
    }
    for (const NodeId v : cone) cut.Set(static_cast<size_t>(v));
    size += static_cast<int64_t>(cone.size());
    misses = 0;
  }
  return cut;
}

// The pairs the oreach pivots train on: `traffic` without self pairs and
// out-of-range ids, or kSyntheticSample uniform pairs when it is empty.
std::vector<std::pair<NodeId, NodeId>> TrainingSample(
    std::span<const std::pair<NodeId, NodeId>> traffic, NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> sample;
  if (!traffic.empty()) {
    for (const auto& [u, v] : traffic) {
      if (u >= 0 && u < n && v >= 0 && v < n && u != v) {
        sample.emplace_back(u, v);
      }
    }
    return sample;
  }
  Rng rng(kObservationSeed + kSampleStream);
  for (int64_t i = 0; i < kSyntheticSample; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (u != v) sample.emplace_back(u, v);
  }
  return sample;
}

// The trainer's candidates: the residue's most frequent endpoints first —
// a pivot sitting on a residue source (or destination) decides that
// node's pairs outright — topped up with TopHubs to `pool_size`.
std::vector<NodeId> TrainingCandidates(
    const Digraph& dag, const Digraph& reversed,
    const std::vector<std::pair<NodeId, NodeId>>& residue,
    int32_t pool_size) {
  const NodeId n = dag.NumNodes();
  std::vector<int32_t> endpoint_count(static_cast<size_t>(n), 0);
  for (const auto& [u, v] : residue) {
    ++endpoint_count[u];
    ++endpoint_count[v];
  }
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n; ++v) {
    if (endpoint_count[v] > 0) candidates.push_back(v);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&endpoint_count](NodeId a, NodeId b) {
              return endpoint_count[a] != endpoint_count[b]
                         ? endpoint_count[a] > endpoint_count[b]
                         : a < b;
            });
  if (static_cast<int32_t>(candidates.size()) >= pool_size) {
    candidates.resize(static_cast<size_t>(pool_size));
    return candidates;
  }
  // At most candidates.size() of the top hubs are in the pool already.
  BitVector in_pool;
  in_pool.Resize(static_cast<size_t>(n));
  for (const NodeId v : candidates) in_pool.Set(static_cast<size_t>(v));
  const int64_t hubs = std::min<int64_t>(
      n, static_cast<int64_t>(pool_size) +
             static_cast<int64_t>(candidates.size()));
  for (const NodeId v : TopHubs(dag, reversed, hubs)) {
    if (static_cast<int32_t>(candidates.size()) >= pool_size) break;
    if (in_pool.TestAndSet(static_cast<size_t>(v))) candidates.push_back(v);
  }
  return candidates;
}

// The first `count` of `candidates` (at most 64, their cones in `cones`)
// of a greedy coverage pick, by index: each round keeps the candidate
// deciding the most still-undecided `residue` pairs; once the residue is
// exhausted, the remaining slots go by raw cone coverage so the pivots
// still generalize.
std::vector<size_t> GreedyPivotOrder(
    const ConeWords& cones, std::span<const NodeId> candidates,
    const std::vector<std::pair<NodeId, NodeId>>& residue, int32_t count) {
  // decided[r]: the candidates one of whose rules (PivotRuleFor, word-wide)
  // decides residue[r].
  std::vector<uint64_t> decided;
  decided.reserve(residue.size());
  for (const auto& [u, v] : residue) {
    const uint64_t fwd_u = cones.fwd[u];
    const uint64_t fwd_v = cones.fwd[v];
    const uint64_t bwd_u = cones.bwd[u];
    const uint64_t bwd_v = cones.bwd[v];
    decided.push_back((bwd_u & fwd_v) | (fwd_u & ~fwd_v) | (bwd_v & ~bwd_u));
  }
  uint64_t used = 0;
  std::vector<size_t> order;
  for (int32_t round = 0; round < count; ++round) {
    int64_t gain[64] = {};
    for (const uint64_t word : decided) {
      for (uint64_t w = word; w != 0; w &= w - 1) ++gain[std::countr_zero(w)];
    }
    int64_t best_gain = -1;
    int64_t best_coverage = -1;
    size_t best = candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((used >> i) & 1) continue;
      const int64_t coverage = cones.coverage[i];
      // Ties (notably gain == 0 after the residue dries up) fall back to
      // coverage, then to the smaller node id.
      if (gain[i] > best_gain ||
          (gain[i] == best_gain &&
           (coverage > best_coverage ||
            (coverage == best_coverage && best < candidates.size() &&
             candidates[i] < candidates[best])))) {
        best_gain = gain[i];
        best_coverage = coverage;
        best = i;
      }
    }
    if (best >= candidates.size()) break;
    const uint64_t bit = uint64_t{1} << best;
    used |= bit;
    order.push_back(best);
    if (best_gain > 0) {
      std::erase_if(decided, [bit](uint64_t word) { return (word & bit) != 0; });
    }
  }
  return order;
}

}  // namespace

ReachIndex::TopoLabels ReachIndex::LabelOrder(const Digraph& dag,
                                              std::span<const NodeId> order) {
  // The reverse pass gives the forward bound (the largest position a node
  // can reach), the forward pass the backward bound (the smallest
  // position that can reach it).
  TopoLabels labels;
  labels.pos.assign(static_cast<size_t>(dag.NumNodes()), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    labels.pos[order[i]] = static_cast<int32_t>(i);
  }
  labels.max_reach = labels.pos;
  labels.min_origin = labels.pos;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (const NodeId s : dag.Successors(*it)) {
      labels.max_reach[*it] =
          std::max(labels.max_reach[*it], labels.max_reach[s]);
    }
  }
  for (const NodeId v : order) {
    for (const NodeId s : dag.Successors(v)) {
      labels.min_origin[s] =
          std::min(labels.min_origin[s], labels.min_origin[v]);
    }
  }
  return labels;
}

Result<ReachIndex> ReachIndex::Build(
    const Digraph& dag, const ReachIndexOptions& options,
    std::span<const std::pair<NodeId, NodeId>> traffic) {
  TCDB_ASSIGN_OR_RETURN(const std::vector<NodeId> order,
                        TopologicalSort(dag));
  const NodeId n = dag.NumNodes();
  ReachIndex index;
  index.n_ = n;
  index.base_order_ = LabelOrder(dag, order);

  // DFS-forest intervals. Roots are taken in topological order, so early
  // nodes own large subtrees; only tree arcs recurse, making ancestry a
  // sound (if incomplete) positive witness.
  index.pre_.assign(n, -1);
  index.post_.assign(n, -1);
  {
    int32_t clock = 0;
    std::vector<std::pair<NodeId, int32_t>> stack;  // (node, next child)
    for (const NodeId root : order) {
      if (index.pre_[root] >= 0) continue;
      stack.emplace_back(root, 0);
      index.pre_[root] = clock++;
      while (!stack.empty()) {
        auto& [v, child] = stack.back();
        const std::span<const NodeId> succ = dag.Successors(v);
        bool descended = false;
        while (child < static_cast<int32_t>(succ.size())) {
          const NodeId s = succ[child++];
          if (index.pre_[s] >= 0) continue;
          index.pre_[s] = clock++;
          stack.emplace_back(s, 0);
          descended = true;
          break;
        }
        if (!descended) {
          index.post_[v] = clock++;
          stack.pop_back();
        }
      }
    }
  }

  // Greedy chain decomposition: walk forward from each yet-unassigned node
  // (in topological order) along arcs to unassigned successors. Adjacent
  // chain positions are real arcs, so "same chain, earlier position" is a
  // positive witness.
  index.chain_id_.assign(n, -1);
  index.chain_pos_.assign(n, 0);
  const std::vector<int32_t>& topo_pos = index.base_order_.pos;
  for (const NodeId start : order) {
    if (index.chain_id_[start] >= 0) continue;
    const int32_t chain = index.num_chains_++;
    NodeId cur = start;
    int32_t pos = 0;
    while (true) {
      index.chain_id_[cur] = chain;
      index.chain_pos_[cur] = pos++;
      NodeId next = -1;
      for (const NodeId s : dag.Successors(cur)) {
        if (index.chain_id_[s] >= 0) continue;
        if (next < 0 || topo_pos[s] < topo_pos[next]) next = s;
      }
      if (next < 0) break;
      cur = next;
    }
  }

  const int32_t k =
      std::min<int32_t>(std::max<int32_t>(options.num_supportive, 0), n);
  const bool observations = options.oreach && n > 0;
  if (k == 0 && !observations) return index;
  const Digraph reversed = dag.Reversed();
  auto add_pivot = [&index](NodeId node, const ConeWords& cones, int bit) {
    index.pivots_.push_back(node);
    index.pivot_fwd_.push_back(ConeBits(cones.fwd, bit));
    index.pivot_bwd_.push_back(ConeBits(cones.bwd, bit));
  };

  // Structural pivots: size a degree-ranked candidate pool, 64 to a sweep,
  // and keep the pivots whose forward x backward coverage decides the
  // most pairs (ties to the higher-ranked hub).
  if (k > 0) {
    const int64_t pool = std::min<int64_t>(
        n, static_cast<int64_t>(k) *
               std::max<int32_t>(options.pivot_candidates_per_slot, 1));
    const std::vector<NodeId> hubs = TopHubs(dag, reversed, pool);
    std::vector<ConeWords> sweeps;
    for (size_t b = 0; b < hubs.size(); b += 64) {
      sweeps.push_back(SweepCones(
          dag, order,
          std::span(hubs).subspan(b, std::min<size_t>(64, hubs.size() - b))));
    }
    const auto coverage = [&sweeps](size_t i) {
      return sweeps[i / 64].coverage[i % 64];
    };
    std::vector<size_t> ranked(hubs.size());
    for (size_t i = 0; i < ranked.size(); ++i) ranked[i] = i;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&coverage](size_t a, size_t b) {
                       return coverage(a) > coverage(b);
                     });
    for (int32_t i = 0; i < k; ++i) {
      const size_t c = ranked[static_cast<size_t>(i)];
      add_pivot(hubs[c], sweeps[c / 64], static_cast<int>(c % 64));
    }
  }
  index.num_structural_ = static_cast<int32_t>(index.pivots_.size());
  if (!observations) return index;

  // The oreach observations: levels, extra orders over pseudo-random
  // ranks, then the cuts.
  LongestPathLevels(dag, order, &index.fwd_level_, &index.bwd_level_);
  for (int32_t t = 0; t < kExtraOrders; ++t) {
    Rng rng(kObservationSeed + kOrderStream * static_cast<uint64_t>(t + 1));
    std::vector<uint64_t> rank(static_cast<size_t>(n));
    for (uint64_t& r : rank) r = rng.Next();
    TCDB_ASSIGN_OR_RETURN(const std::vector<NodeId> ranked,
                          RankedTopoOrder(dag, rank));
    index.extra_orders_.push_back(LabelOrder(dag, ranked));
  }
  for (int32_t j = 0; j < kCutsPerDirection; ++j) {
    index.fwd_cuts_.push_back(GrowCut(
        dag, kObservationSeed + kCutStream * static_cast<uint64_t>(2 * j + 1)));
    index.bwd_cuts_.push_back(
        GrowCut(reversed, kObservationSeed +
                              kCutStream * static_cast<uint64_t>(2 * j + 2)));
  }

  // Trained pivots: greedy coverage against the residue of the sampled
  // traffic — the pairs that neither the labels so far nor a direct arc
  // decide, deduplicated.
  const int32_t num_trained = std::min<int32_t>(kTrainedPivots, n);
  std::vector<std::pair<NodeId, NodeId>> residue;
  for (const auto& [u, v] : TrainingSample(traffic, n)) {
    if (index.TryDecide(u, v) != Verdict::kUnknown) continue;
    const std::span<const NodeId> successors = dag.Successors(u);
    if (std::binary_search(successors.begin(), successors.end(), v)) continue;
    residue.emplace_back(u, v);
  }
  std::sort(residue.begin(), residue.end());
  residue.erase(std::unique(residue.begin(), residue.end()), residue.end());

  const std::vector<NodeId> candidates = TrainingCandidates(
      dag, reversed, residue,
      std::min<int32_t>(std::max(kCandidatePool, num_trained), n));
  const ConeWords cones = SweepCones(dag, order, candidates);
  for (const size_t i :
       GreedyPivotOrder(cones, candidates, residue, num_trained)) {
    add_pivot(candidates[i], cones, static_cast<int>(i));
  }
  return index;
}

}  // namespace tcdb

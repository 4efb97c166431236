#ifndef TCDB_REACH_REACH_INDEX_H_
#define TCDB_REACH_REACH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/reach_rule.h"
#include "scale/chain_index.h"
#include "util/bit_vector.h"
#include "util/codec.h"
#include "util/status.h"

namespace tcdb {

// Which label structure a ReachCore builds over the condensation.
enum class ReachBackend : uint8_t {
  // The partial O(1) rules below plus the pruned-BFS fallback.
  kLabels = 0,
  // scale/chain_index.h frontier labels: exact O(1) answers, ~O(n + m*k)
  // build, n*k label bytes. No fallback rung ever runs.
  kChain = 1,
  // The default: build the chain labels when their frontier fits within
  // kAutoChainBudgetFactor times the label core they replace
  // (LabelCoreBytes) and within `chain`'s budget, else the label core. A
  // built core always holds kLabels or kChain; kAuto is never stored.
  kAuto = 2,
};

// The image bytes of a kLabels core without the oreach observations over
// a condensation of n nodes and m arcs, less its fixed-size header: 8 per
// arc, 36 per node (node map, SCC size and the seven int32 label arrays of
// ReachIndex: the base order's three, the DFS intervals' two and the
// chains' two) and two n-bit sets per supportive pivot. p is the pivot
// count asked for (ReachIndexOptions::num_supportive), clamped to
// [0, n] as the build does.
inline int64_t LabelCoreBytes(int64_t n, int64_t m, int64_t p) {
  p = std::clamp<int64_t>(p, 0, n);
  return 8 * m + 36 * n + 2 * p * 8 * ((n + 63) / 64);
}

// kAuto keeps the chain labels while their frontier is at most this many
// times LabelCoreBytes.
inline constexpr int64_t kAutoChainBudgetFactor = 2;

struct ReachIndexOptions {
  ReachBackend backend = ReachBackend::kAuto;
  // The chain build's budget (see ChainIndexOptions): the cap for kChain,
  // and an upper limit on kAuto's own budget.
  ChainIndexOptions chain;
  // Number of supportive pivot vertices. Each pivot stores one forward and
  // one backward reachability bit-set (2 * n bits), giving one O(1)
  // positive rule and two O(1) negative rules per pivot. 0 disables the
  // stage.
  int32_t num_supportive = 8;
  // Pivot candidates evaluated per supportive slot (the best by
  // forward x backward coverage wins). Higher = better pivots, slower
  // build.
  int32_t pivot_candidates_per_slot = 4;
  // O'Reach observations (serving stage kObservation): extra topological
  // orders, longest-path levels, negative cuts and traffic-trained pivots,
  // consulted after the rules above. Built only into a kLabels core
  // (pinned, or chosen by kAuto); off by default — they earn their memory
  // on skewed/adversarial mixes, which the benches opt into explicitly.
  bool oreach = false;
  // Sampled query traffic, in input-node ids, that trains the oreach pivots
  // on what the other rules leave undecided. Read by ReachCore::Build,
  // which maps it onto the condensation and hands it to ReachIndex::Build
  // as `traffic`. Empty: the pivots train on a synthetic uniform sample.
  std::vector<std::pair<NodeId, NodeId>> oreach_traffic;
};

// Precomputed O(1) reachability labels over a DAG — the paper's machinery
// computes closures; this index answers point queries `reaches(u, v)?`
// without touching a closure at all, in the spirit of O'Reach (Hanauer,
// Schulz & Trummer 2020) and topological chain labelings (Kritikakis &
// Tollis 2022). One build pass produces:
//   - topological positions plus per-node forward/backward reach bounds
//     (definite "no" when v lies outside u's reachable position window),
//   - DFS-forest interval labels (definite "yes" on forest ancestry),
//   - a greedy chain decomposition (definite "yes" along a chain),
//   - `num_supportive` structural pivot bit-sets (definite "yes" through a
//     pivot, definite "no" when a pivot separates the pair).
// With options.oreach it also carries the O'Reach observations, aimed at
// the pairs the rules above leave undecided (the counts are named
// constants in reach_index_build.cc):
//   - kExtraOrders more topological orders (rank-driven Kahn over
//     pseudo-random ranks, scale/topo_order.h), each with its own reach
//     bounds: every order is an independent "no" witness,
//   - forward/backward longest-path levels (u ~> v forces
//     fwd_level[u] < fwd_level[v] and bwd_level[u] > bwd_level[v]),
//   - kCutsPerDirection successor-closed and as many predecessor-closed
//     negative cuts, grown from random cones toward half the graph,
//   - kTrainedPivots pivots chosen coverage-greedily against the residue
//     of the sampled traffic (Build's `traffic` argument).
// The labels decide the vast majority of random queries; the undecided
// residue goes to PrunedBfs(), first within a node budget and then
// unbounded (see ReachService).
//
// Thread safety: a built index is immutable, so TryDecide and the label
// accessors may run from any number of threads concurrently; the BFS
// fallbacks mutate only the caller-provided SearchScratch. This is what
// lets ReachServer share one index read-only across all of its lanes.
class ReachIndex {
 public:
  // Builds the labels. `dag` must be acyclic (condense cyclic inputs
  // first); fails with InvalidArgument otherwise. O(n + m) plus
  // O(n + m) word operations per 64 pivot candidates (one cone sweep per
  // direction), and O((n + m) log n) per extra order.
  // With options.oreach, `traffic` (pairs of `dag`'s node ids) trains the
  // trained pivots; options.oreach_traffic is not read here.
  static Result<ReachIndex> Build(
      const Digraph& dag, const ReachIndexOptions& options = {},
      std::span<const std::pair<NodeId, NodeId>> traffic = {});

  enum class Verdict : uint8_t { kNo = 0, kYes = 1, kUnknown = 2 };

  // Reusable buffers for PrunedBfs/PrunedMultiBfs. The index itself is
  // immutable after Build() and safe to share across any number of
  // threads; all per-search mutable state lives here, so each concurrent
  // caller (one per ReachServer lane) owns its own SearchScratch and
  // passes it in. Buffers are sized lazily on first use.
  struct SearchScratch {
    EpochSet visited;
    std::vector<NodeId> frontier;
    // node -> index into the current PrunedMultiBfs target list, or -1.
    std::vector<int32_t> target_slot;
  };

  // O(1) per label: answers from the labels alone, or kUnknown for the
  // residue. The rules run cheapest first — base order, DFS interval,
  // chain, structural pivots, then the oreach levels, extra orders, cuts
  // and trained pivots. When decided, a non-null `rule` names the rule.
  Verdict TryDecide(NodeId u, NodeId v, ReachRule* rule = nullptr) const;

  // Fallback: BFS from `u` toward `v` over `dag` (which must be the graph
  // the index was built from), pruning every node whose labels prove it
  // cannot lie on a u ~> v path and short-circuiting through TryDecide.
  // Returns a definite verdict if the search finishes within `budget`
  // node expansions, kUnknown otherwise. Thread-safe as long as
  // concurrent callers pass distinct `scratch` instances.
  Verdict PrunedBfs(const Digraph& dag, NodeId u, NodeId v, int64_t budget,
                    SearchScratch* scratch,
                    int64_t* expansions = nullptr) const;

  // Multi-target variant for batched serving: one search resolves
  // reachability from `u` to every node of `targets` (deduplicated, none
  // equal to `u`). (*reached)[i] is set for reachable targets[i]. Returns
  // true when the results are definitive (all targets found, or the
  // pruned frontier exhausted within `budget`); false when the budget ran
  // out first, in which case unset entries are merely undecided.
  bool PrunedMultiBfs(const Digraph& dag, NodeId u,
                      std::span<const NodeId> targets, int64_t budget,
                      std::vector<bool>* reached,
                      SearchScratch* scratch,
                      int64_t* expansions = nullptr) const;

  // Which of a pivot's rules decides (u, v), given the pivot's cones (fwd:
  // the nodes it reaches, bwd: the nodes reaching it): 0 for u ~> p ~> v
  // ("yes"); 1 for p ~> u but not p ~> v, since a u ~> v path would extend
  // the pivot's reach to v ("no"); 2 for v ~> p but not u ~> p, since a
  // u ~> v path would reach the pivot ("no"); -1 for none. TryDecide's
  // pivot rules and the oreach pivot trainer share it.
  static int PivotRuleFor(const BitVector& fwd, const BitVector& bwd,
                          NodeId u, NodeId v) {
    const bool p_reaches_u = fwd.Test(static_cast<size_t>(u));
    const bool p_reaches_v = fwd.Test(static_cast<size_t>(v));
    const bool u_reaches_p = bwd.Test(static_cast<size_t>(u));
    const bool v_reaches_p = bwd.Test(static_cast<size_t>(v));
    if (u_reaches_p && p_reaches_v) return 0;
    if (p_reaches_u && !p_reaches_v) return 1;
    if (v_reaches_p && !u_reaches_p) return 2;
    return -1;
  }

  NodeId num_nodes() const { return n_; }
  // True when the index carries the oreach observations.
  bool has_observations() const { return !fwd_level_.empty(); }
  // Topological orders, the base one included; cuts per direction.
  int32_t num_orders() const {
    return 1 + static_cast<int32_t>(extra_orders_.size());
  }
  int32_t num_cuts() const { return static_cast<int32_t>(fwd_cuts_.size()); }
  int32_t num_supportive() const { return num_structural_; }
  int32_t num_trained_pivots() const {
    return static_cast<int32_t>(pivots_.size()) - num_structural_;
  }
  // The structural pivots, then the trained ones.
  const std::vector<NodeId>& pivot_nodes() const { return pivots_; }
  int32_t chain_id(NodeId v) const { return chain_id_[v]; }
  int32_t num_chains() const { return num_chains_; }

  // An empty index (zero nodes). Usable instances come from Build().
  ReachIndex() = default;

  // Appends a fixed-width little-endian image of every label array to
  // `out` (checkpoint body material — the caller frames it with a CRC).
  // Deserialize() restores a bit-identical index, so recovery skips the
  // label build entirely. Returns Corruption on a truncated or
  // inconsistent image, and checks every count against the bytes left
  // before it sizes anything from it.
  void SerializeAppend(std::string* out) const;
  static Result<ReachIndex> Deserialize(codec::Reader* reader);

 private:
  // One topological order and its reach bounds. A node u can only reach
  // nodes positioned in [pos[u], max_reach[u]]; dually, only nodes
  // positioned in [min_origin[v], pos[v]] can reach v.
  struct TopoLabels {
    std::vector<int32_t> pos;
    std::vector<int32_t> max_reach;
    std::vector<int32_t> min_origin;
  };

  // Labels `order`, a topological order of `dag`.
  static TopoLabels LabelOrder(const Digraph& dag,
                               std::span<const NodeId> order);

  // TryDecide's pivot rules over pivots [begin, end), reported as
  // rules[0] ("yes"), rules[1] or rules[2] ("no").
  Verdict DecideByPivots(size_t begin, size_t end, const ReachRule* rules,
                         NodeId u, NodeId v, ReachRule* rule) const;
  // TryDecide's oreach observations, consulted after every base rule. Kept
  // out of TryDecide so that the base rules stay small enough to inline
  // into the pruned searches.
  Verdict DecideByObservations(NodeId u, NodeId v, ReachRule* rule) const;

  NodeId n_ = 0;

  // The base order, and the oreach extra orders.
  TopoLabels base_order_;
  std::vector<TopoLabels> extra_orders_;

  // DFS-forest entry/exit stamps: pre_[u] <= pre_[v] && post_[v] <=
  // post_[u] proves a forest path u ~> v.
  std::vector<int32_t> pre_;
  std::vector<int32_t> post_;

  // Greedy chain decomposition: consecutive positions on one chain are
  // joined by real arcs, so chain_id_[u] == chain_id_[v] &&
  // chain_pos_[u] < chain_pos_[v] proves u ~> v.
  std::vector<int32_t> chain_id_;
  std::vector<int32_t> chain_pos_;
  int32_t num_chains_ = 0;

  // oreach only: longest path from any source / to any sink, and the
  // successor-closed (fwd) and predecessor-closed (bwd) cuts.
  std::vector<int32_t> fwd_level_;
  std::vector<int32_t> bwd_level_;
  std::vector<BitVector> fwd_cuts_;
  std::vector<BitVector> bwd_cuts_;

  // Pivots: the first num_structural_ are the degree-ranked supportive
  // pivots, the rest the oreach trained ones. pivot_fwd_[i] = nodes
  // reachable from pivots_[i] (itself included), pivot_bwd_[i] = nodes
  // that reach pivots_[i].
  std::vector<NodeId> pivots_;
  int32_t num_structural_ = 0;
  std::vector<BitVector> pivot_fwd_;
  std::vector<BitVector> pivot_bwd_;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_INDEX_H_

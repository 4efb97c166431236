#ifndef TCDB_REACH_REACH_RULE_H_
#define TCDB_REACH_REACH_RULE_H_

namespace tcdb {

// The individual rule that decided a reachability query: the one
// classification every decision path in the serving stack reports.
enum class ReachRule {
  kCacheHit = 0,        // LRU answer cache
  kSelf,                // u == v (reflexivity)
  kSameScc,             // one strongly connected component
  kTopoWindow,          // base topo position / reach-bound window: "no"
  kDfsInterval,         // DFS-forest interval containment: "yes"
  kChainStep,           // same greedy chain, earlier position: "yes"
  kSupportiveThrough,   // base pivot: u ~> p ~> v: "yes"
  kSupportiveFwdCut,    // base pivot: p ~> u but not p ~> v: "no"
  kSupportiveBwdCut,    // base pivot: v ~> p but not u ~> p: "no"
  kAdjacency,           // (u, v) is an arc: "yes"
  kChainFrontier,       // kChain backend frontier labels (always definitive)
  // --- ReachIndex oreach observations, stage kObservation ---
  kObsTopoOrder,        // an extra topological order has pos[v] < pos[u]
  kObsSandwich,         // an extra order's reach-bound window excludes v
  kObsLevel,            // forward/backward longest-path levels contradict
  kObsForwardCut,       // u inside a successor-closed cut, v outside: "no"
  kObsBackwardCut,      // v inside a predecessor-closed cut, u outside: "no"
  kObsPivotThrough,     // traffic pivot: u ~> p ~> v: "yes"
  kObsPivotFwdCut,      // traffic pivot: p ~> u but not p ~> v: "no"
  kObsPivotBwdCut,      // traffic pivot: v ~> p but not u ~> p: "no"
  // --- past the O(1) labels ---
  kPrunedBfs,           // interval-pruned BFS over the condensation
  kIncremental,         // dynamic: the incrementally maintained per-pivot
                        // reachability trees (exact at the live epoch)
  kLiveBfs,             // dynamic: search on the live graph, pruned by
                        // the incremental trees
};
inline constexpr int kNumReachRules =
    static_cast<int>(ReachRule::kLiveBfs) + 1;

// The rung of the serving ladder a rule belongs to: a coarser grouping of
// ReachRule for per-rung tables (StageOf). The stages through
// kChainFrontier are O(1) label lookups; the rest search or consult the
// dynamic tier.
enum class ReachStage {
  kCache = 0,           // LRU answer cache hit
  kTrivial,             // u == v, or u and v share a strongly connected
                        // component of the (cyclic) input
  kTopoNegative,        // topological-order / reach-bound intervals: "no"
  kDfsPositive,         // DFS-forest interval containment: "yes"
  kChainPositive,       // same chain, earlier position: "yes"
  kSupportivePositive,  // u reaches a pivot that reaches v: "yes"
  kSupportiveNegative,  // a pivot separates u from v: "no"
  kAdjacency,           // (u, v) is an arc of the graph: "yes"
                        // (O(log out-degree) via the sorted CSR row)
  kObservation,         // ReachIndex's oreach observations: levels,
                        // extra orders, cuts, trained pivots
  kChainFrontier,       // chain-decomposition frontier labels (the kChain
                        // backend; exact, so always definitive)
  kPrunedBfs,           // interval-pruned BFS
  kIncremental,         // dynamic: the incremental per-pivot trees
  kLiveBfs,             // dynamic: search on the live graph
};
inline constexpr int kNumReachStages =
    static_cast<int>(ReachStage::kLiveBfs) + 1;

// The stage a rule is reported under.
constexpr ReachStage StageOf(ReachRule rule) {
  switch (rule) {
    case ReachRule::kCacheHit:
      return ReachStage::kCache;
    case ReachRule::kSelf:
    case ReachRule::kSameScc:
      return ReachStage::kTrivial;
    case ReachRule::kTopoWindow:
      return ReachStage::kTopoNegative;
    case ReachRule::kDfsInterval:
      return ReachStage::kDfsPositive;
    case ReachRule::kChainStep:
      return ReachStage::kChainPositive;
    case ReachRule::kSupportiveThrough:
      return ReachStage::kSupportivePositive;
    case ReachRule::kSupportiveFwdCut:
    case ReachRule::kSupportiveBwdCut:
      return ReachStage::kSupportiveNegative;
    case ReachRule::kAdjacency:
      return ReachStage::kAdjacency;
    case ReachRule::kChainFrontier:
      return ReachStage::kChainFrontier;
    case ReachRule::kObsTopoOrder:
    case ReachRule::kObsSandwich:
    case ReachRule::kObsLevel:
    case ReachRule::kObsForwardCut:
    case ReachRule::kObsBackwardCut:
    case ReachRule::kObsPivotThrough:
    case ReachRule::kObsPivotFwdCut:
    case ReachRule::kObsPivotBwdCut:
      return ReachStage::kObservation;
    case ReachRule::kPrunedBfs:
      return ReachStage::kPrunedBfs;
    case ReachRule::kIncremental:
      return ReachStage::kIncremental;
    case ReachRule::kLiveBfs:
      return ReachStage::kLiveBfs;
  }
  return ReachStage::kTrivial;
}

// Short stable name, e.g. "topo-window" (stats tables, bench JSON keys).
inline const char* ReachRuleName(ReachRule rule) {
  switch (rule) {
    case ReachRule::kCacheHit:
      return "cache-hit";
    case ReachRule::kSelf:
      return "self";
    case ReachRule::kSameScc:
      return "same-scc";
    case ReachRule::kTopoWindow:
      return "topo-window";
    case ReachRule::kDfsInterval:
      return "dfs-interval";
    case ReachRule::kChainStep:
      return "chain-step";
    case ReachRule::kSupportiveThrough:
      return "supportive-through";
    case ReachRule::kSupportiveFwdCut:
      return "supportive-fwd-cut";
    case ReachRule::kSupportiveBwdCut:
      return "supportive-bwd-cut";
    case ReachRule::kAdjacency:
      return "adjacency";
    case ReachRule::kChainFrontier:
      return "chain-frontier";
    case ReachRule::kObsTopoOrder:
      return "obs-topo-order";
    case ReachRule::kObsSandwich:
      return "obs-sandwich";
    case ReachRule::kObsLevel:
      return "obs-level";
    case ReachRule::kObsForwardCut:
      return "obs-forward-cut";
    case ReachRule::kObsBackwardCut:
      return "obs-backward-cut";
    case ReachRule::kObsPivotThrough:
      return "obs-pivot-through";
    case ReachRule::kObsPivotFwdCut:
      return "obs-pivot-fwd-cut";
    case ReachRule::kObsPivotBwdCut:
      return "obs-pivot-bwd-cut";
    case ReachRule::kPrunedBfs:
      return "pruned-bfs";
    case ReachRule::kIncremental:
      return "incremental";
    case ReachRule::kLiveBfs:
      return "live-bfs";
  }
  return "?";
}

// Short stable name, e.g. "topo-negative" (used by --explain and the stats
// table).
inline const char* ReachStageName(ReachStage stage) {
  switch (stage) {
    case ReachStage::kCache:
      return "cache";
    case ReachStage::kTrivial:
      return "trivial";
    case ReachStage::kTopoNegative:
      return "topo-negative";
    case ReachStage::kDfsPositive:
      return "dfs-interval";
    case ReachStage::kChainPositive:
      return "chain";
    case ReachStage::kSupportivePositive:
      return "supportive-yes";
    case ReachStage::kSupportiveNegative:
      return "supportive-no";
    case ReachStage::kAdjacency:
      return "adjacency";
    case ReachStage::kObservation:
      return "observation";
    case ReachStage::kChainFrontier:
      return "chain-frontier";
    case ReachStage::kPrunedBfs:
      return "pruned-bfs";
    case ReachStage::kIncremental:
      return "incremental";
    case ReachStage::kLiveBfs:
      return "live-bfs";
  }
  return "?";
}

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_RULE_H_

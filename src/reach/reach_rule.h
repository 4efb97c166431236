#ifndef TCDB_REACH_REACH_RULE_H_
#define TCDB_REACH_REACH_RULE_H_

namespace tcdb {

// The individual rule that decided a reachability query: the one
// classification every decision path in the serving stack reports.
enum class ReachRule {
  kCacheHit = 0,        // LRU answer cache
  kSelf,                // u == v (reflexivity)
  kSameScc,             // one strongly connected component
  kTopoWindow,          // u < v in reverse-topological ids: "no"
  kSupportiveThrough,   // a root r with u ~> r ~> v: "yes"
  kSupportiveFwdCut,    // a root r with r ~> u but not r ~> v: "no"
  kSupportiveBwdCut,    // a root r with v ~> r but not u ~> r: "no"
  kChainFrontier,       // kChain backend frontier labels (always definitive)
  // --- past the O(1) labels ---
  kPrunedBfs,           // the word-pruned bidirectional search
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
  kTopoNegative,        // reverse-topological id order: "no"
  kSupportivePositive,  // u reaches a root that reaches v: "yes"
  kSupportiveNegative,  // a root separates u from v: "no"
  kChainFrontier,       // chain-decomposition frontier labels (the kChain
                        // backend; exact, so always definitive)
  kPrunedBfs,           // word-pruned bidirectional search
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
    case ReachRule::kSupportiveThrough:
      return ReachStage::kSupportivePositive;
    case ReachRule::kSupportiveFwdCut:
    case ReachRule::kSupportiveBwdCut:
      return ReachStage::kSupportiveNegative;
    case ReachRule::kChainFrontier:
      return ReachStage::kChainFrontier;
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
    case ReachRule::kSupportiveThrough:
      return "supportive-through";
    case ReachRule::kSupportiveFwdCut:
      return "supportive-fwd-cut";
    case ReachRule::kSupportiveBwdCut:
      return "supportive-bwd-cut";
    case ReachRule::kChainFrontier:
      return "chain-frontier";
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
    case ReachStage::kSupportivePositive:
      return "supportive-yes";
    case ReachStage::kSupportiveNegative:
      return "supportive-no";
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

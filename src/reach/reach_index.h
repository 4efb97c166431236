#ifndef TCDB_REACH_REACH_INDEX_H_
#define TCDB_REACH_REACH_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/reach_rule.h"
#include "scale/chain_index.h"
#include "util/bit_vector.h"
#include "util/check.h"
#include "util/huge_page_allocator.h"
#include "util/status.h"

namespace tcdb {

// Which label structure a ReachCore builds over the condensation.
enum class ReachBackend : uint8_t {
  // The exact search core: 64 root words per node and a bidirectional
  // search behind them (ReachIndex).
  kLabels = 0,
  // scale/chain_index.h frontier labels: exact O(1) answers, ~O(n + m*k)
  // build, n*k label bytes. No search ever runs.
  kChain = 1,
  // The default: build the chain labels when their frontier fits within
  // kAutoChainBudgetFactor times the label core they replace
  // (LabelCoreBytes) and within `chain`'s budget, else the label core. A
  // built core always holds kLabels or kChain; kAuto is never stored.
  kAuto = 2,
};

// The bytes a kLabels core over an acyclic input with n nodes and m arcs
// holds: its image less the 21-byte header (8 per arc, and 8 per node for
// the node map and the SCC sizes) plus the 32 per node a decoder rebuilds
// from the arcs (the two root words, and the CSR offsets of the DAG and of
// its reverse, whose targets take the image's 8 per arc).
inline int64_t LabelCoreBytes(int64_t n, int64_t m) { return 8 * m + 40 * n; }

// kAuto keeps the chain labels while their frontier is at most this many
// times LabelCoreBytes.
inline constexpr int64_t kAutoChainBudgetFactor = 2;

struct ReachIndexOptions {
  ReachBackend backend = ReachBackend::kAuto;
  // The chain build's budget (see ChainIndexOptions): the cap for kChain,
  // and an upper limit on kAuto's own budget.
  ChainIndexOptions chain;
  // Not read. The perfbench `serve` workload still sets both, so they stay
  // declared until it stops; tools/check.sh fails if anything else names
  // them.
  bool oreach = false;
  std::vector<std::pair<NodeId, NodeId>> oreach_traffic;
};

// The exact search core over a condensation, in the spirit of O'Reach
// (Hanauer, Schulz & Trummer 2020): supportive vertices plus topological
// pruning, with a graph search for what they leave open. The 64 nodes of
// largest (in-degree + 1) * (out-degree + 1), ties to the smaller id, are
// the roots, and every node carries two words over them:
//   - anc: bit i is set when the node reaches root i,
//   - desc: bit i is set when root i reaches the node
// (a root is in both of its own cones). TryDecide runs four tests:
//   - u == v: "yes";
//   - u < v: "no", because ids are reverse-topological (every arc runs
//     from a higher id to a lower one, as Condense numbers them);
//   - DecideByWords: "yes" through a root, or "no" when a root separates
//     the pair.
// Search settles the rest exactly, by a bidirectional search that prunes
// with the same tests. Bit-parallel roots are also the first stage of
// pruned landmark labeling (Akiba, Iwata & Yoshida, SIGMOD 2013).
//
// Thread safety: a built index is immutable, so TryDecide and Search may
// run from any number of threads at once; Search mutates only the
// caller's SearchScratch. ReachServer shares one index read-only across
// all of its lanes.
class ReachIndex {
 public:
  static constexpr int kNumRoots = 64;

  enum class Verdict : uint8_t { kNo = 0, kYes = 1, kUnknown = 2 };

  // Builds the words and the reverse CSR: one O(n + m) word sweep per
  // direction. InvalidArgument unless every arc of `dag` runs from a
  // higher id to a lower one (which also rules out cycles).
  static Result<ReachIndex> Build(const Digraph& dag);

  // The word tests over 64 roots (or pivots) at once, from the words of u
  // and v: "yes" when u reaches a root that reaches v; "no" when a root
  // reaches u but not v (a u ~> v path would extend its reach to v), or
  // when v reaches a root u does not reach (the path would reach it).
  // kUnknown otherwise. When decided, a non-null `rule` names the test.
  static Verdict DecideByWords(uint64_t anc_u, uint64_t desc_u,
                               uint64_t anc_v, uint64_t desc_v,
                               ReachRule* rule = nullptr) {
    if ((anc_u & desc_v) != 0) {
      if (rule != nullptr) *rule = ReachRule::kSupportiveThrough;
      return Verdict::kYes;
    }
    const uint64_t fwd_cut = desc_u & ~desc_v;
    if ((fwd_cut | (anc_v & ~anc_u)) != 0) {
      if (rule != nullptr) {
        *rule = fwd_cut != 0 ? ReachRule::kSupportiveFwdCut
                             : ReachRule::kSupportiveBwdCut;
      }
      return Verdict::kNo;
    }
    return Verdict::kUnknown;
  }

  // O(1): the id test, then the word tests; kUnknown for the residue.
  // When decided, a non-null `rule` names the test.
  Verdict TryDecide(NodeId u, NodeId v, ReachRule* rule = nullptr) const {
    TCDB_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
    if (u == v) {
      if (rule != nullptr) *rule = ReachRule::kSelf;
      return Verdict::kYes;
    }
    if (u < v) {
      if (rule != nullptr) *rule = ReachRule::kTopoWindow;
      return Verdict::kNo;
    }
    const RootWords& wu = words_[static_cast<size_t>(u)];
    const RootWords& wv = words_[static_cast<size_t>(v)];
    return DecideByWords(wu.anc, wu.desc, wv.anc, wv.desc, rule);
  }

  // Per-search buffers, owned by the caller (one per ReachServer lane) and
  // sized lazily on first use.
  struct SearchScratch {
    EpochSet fwd_seen;
    EpochSet bwd_seen;
    std::vector<NodeId> fwd;
    std::vector<NodeId> bwd;
    std::vector<NodeId> next;
  };

  // Exact reachability u ~> v over `dag`, the graph the index was built
  // from: a bidirectional search that expands the smaller frontier a level
  // at a time, forward over `dag` and backward over the reverse CSR. A
  // forward node x is dropped when TryDecide(x, v) is "no" and ends the
  // search when it is "yes"; a backward node x likewise by TryDecide(u, x).
  // A node seen from both sides means "yes"; an exhausted side means "no".
  // No budget. A non-null `expansions` receives the nodes expanded.
  bool Search(const Digraph& dag, NodeId u, NodeId v, SearchScratch* scratch,
              int64_t* expansions = nullptr) const;

  NodeId num_nodes() const { return n_; }
  // min(64, n) roots; bit i of the words is roots()[i].
  const std::vector<NodeId>& roots() const { return roots_; }
  uint64_t anc(NodeId v) const { return words_[static_cast<size_t>(v)].anc; }
  uint64_t desc(NodeId v) const { return words_[static_cast<size_t>(v)].desc; }

  // An empty index (zero nodes). Usable instances come from Build().
  ReachIndex() = default;

 private:
  // Both words of a node side by side, so a query's four loads touch two
  // cache lines.
  struct RootWords {
    uint64_t anc = 0;
    uint64_t desc = 0;
  };

  NodeId n_ = 0;
  std::vector<NodeId> roots_;
  HugeVector<RootWords> words_;
  Digraph reversed_;
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_INDEX_H_

#ifndef TCDB_OREACH_OBSERVATION_BATTERY_H_
#define TCDB_OREACH_OBSERVATION_BATTERY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/reach_rule.h"
#include "util/bit_vector.h"
#include "util/codec.h"
#include "util/status.h"

namespace tcdb {

struct ObservationBatteryOptions {
  // Extra topological orders beyond the base index's. Each order carries a
  // position array plus sandwich reach-bounds (two negative observations
  // per order). >= 2 gives genuinely independent sandwiches.
  int32_t num_orders = 3;
  // Negative cuts per direction: num_cuts successor-closed sets (u inside,
  // v outside => "no") and num_cuts predecessor-closed sets (v inside,
  // u outside => "no"), each grown toward |C| ~ n/2 from random cones.
  int32_t num_cuts = 3;
  // Traffic-trained supportive pivots (forward + backward bit-set each),
  // picked coverage-greedily against the sampled traffic's undecided
  // residue. 0 disables the pivot tier.
  int32_t num_pivots = 12;
  // Candidate pool evaluated by the greedy pivot selection: the most
  // frequent residue endpoints plus the top degree-product nodes.
  int32_t candidate_pool = 48;
  // When no traffic sample is supplied, the battery trains its pivots on
  // this many synthetic uniform pairs instead (seeded below).
  int64_t synthetic_sample = 4096;
  // Seeds the extra orders, the cut cones, and the synthetic sample.
  uint64_t seed = 2026;
};

// Decides `u` and `v` already known decidable by cheaper machinery — the
// battery builds its pivots against the residue this predicate leaves.
using DecideProbe = std::function<bool(NodeId u, NodeId v)>;

// O'Reach-style observation battery (Hanauer, Schulz & Szedlák): a second
// bank of O(1) labels consulted after the base ReachIndex rules and before
// the pruned-BFS search (serving stage kObservation). Where the base
// index optimizes for the average random pair, the battery is aimed at the
// *residue* — the pairs the base labels leave undecided — and at the
// actual query mix:
//
//   - num_orders extra topological orders (rank-driven Kahn over
//     pseudo-random ranks, scale/topo_order.h), each with per-node
//     positions and sandwich reach-bounds. Every order is an independent
//     "no" witness: u ~> v forces pos_t[u] < pos_t[v] in all of them, and
//     forces pos_t[v] inside u's forward window.
//   - forward/backward longest-path levels (u ~> v forces
//     fwd_level[u] < fwd_level[v] and bwd_level[u] > bwd_level[v]).
//   - weakly connected component ids (different components: "no").
//   - num_cuts successor-closed and num_cuts predecessor-closed negative
//     cuts, grown from random forward/backward cones toward half the
//     graph, so each side of a cut kills ~ |C| * (n - |C|) pairs.
//   - num_pivots supportive pivots chosen coverage-greedily over sampled
//     query traffic: candidates are the traffic residue's most frequent
//     endpoints (a pivot placed on a residue source decides that source's
//     pairs outright) plus high degree-product hubs; each greedy round
//     keeps the candidate deciding the most still-undecided sample pairs.
//
// Every observation is sound in both directions it claims, so enabling the
// battery can never change an answer — only which rung produces it. A
// built battery is immutable and thread-safe to share, exactly like the
// base index.
class ObservationBattery {
 public:
  enum class Verdict : uint8_t { kNo = 0, kYes = 1, kUnknown = 2 };

  // Builds the labels over `dag`, which must be acyclic (condense first;
  // InvalidArgument otherwise). `traffic` is a sample of (src, dst)
  // condensation pairs representative of the query mix; `already_decided`
  // tells the pivot trainer which sample pairs cheaper machinery handles.
  // Either may be empty/null: no traffic falls back to a synthetic
  // sample, no probe trains against the battery's own observations only.
  static Result<ObservationBattery> Build(
      const Digraph& dag, const ObservationBatteryOptions& options,
      std::span<const std::pair<NodeId, NodeId>> traffic = {},
      const DecideProbe& already_decided = nullptr);

  // O(1): answers from the observations alone, or kUnknown. When decided
  // and `rule` is non-null, *rule names the observation that fired.
  Verdict TryDecide(NodeId u, NodeId v, ReachRule* rule = nullptr) const;

  NodeId num_nodes() const { return n_; }
  int32_t num_orders() const { return static_cast<int32_t>(orders_.size()); }
  int32_t num_cuts() const { return static_cast<int32_t>(fwd_cuts_.size()); }
  int32_t num_pivots() const { return static_cast<int32_t>(pivots_.size()); }
  const std::vector<NodeId>& pivot_nodes() const { return pivots_; }

  // An empty battery (zero nodes, decides nothing). Usable instances come
  // from Build() / Deserialize().
  ObservationBattery() = default;

  // Fixed-width little-endian image of every label array (checkpoint body
  // material; the caller frames it). Deserialize restores a bit-identical
  // battery. Corruption on a truncated or inconsistent image.
  void SerializeAppend(std::string* out) const;
  static Result<ObservationBattery> Deserialize(codec::Reader* reader);

 private:
  struct OrderLabels {
    std::vector<int32_t> pos;         // node -> position in this order
    std::vector<int32_t> max_reach;   // largest position reachable from v
    std::vector<int32_t> min_origin;  // smallest position reaching v
  };

  NodeId n_ = 0;
  std::vector<OrderLabels> orders_;
  std::vector<int32_t> fwd_level_;  // longest path from any source
  std::vector<int32_t> bwd_level_;  // longest path to any sink
  std::vector<int32_t> weak_comp_;  // weakly connected component id
  std::vector<BitVector> fwd_cuts_;  // successor-closed node sets
  std::vector<BitVector> bwd_cuts_;  // predecessor-closed node sets
  std::vector<NodeId> pivots_;
  std::vector<BitVector> pivot_fwd_;  // reachable from pivots_[i]
  std::vector<BitVector> pivot_bwd_;  // reaching pivots_[i]
};

}  // namespace tcdb

#endif  // TCDB_OREACH_OBSERVATION_BATTERY_H_

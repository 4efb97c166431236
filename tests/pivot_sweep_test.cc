// Bit-sliced supportive vertices (ctest label: `dynamic`): the pivot trees'
// per-node membership words, the word-parallel IncrementalIndex::Decide and
// the bit-parallel pivot sweeps, each checked against a per-pivot reference
// kept in this file.
//   - After every op of random insert/delete traces, every membership bit
//     equals ReachTree::Contains (DAG and cyclic families; 0, 8 and 64
//     pivots).
//   - The word Decide equals the per-pivot rule loop on all pairs.
//   - IncrementalIndex picks the pivots a per-draw candidate scorer picks.
//   - DynamicReachService::Create refuses more than 64 pivots with a
//     Status and serves at 64.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/incremental.h"
#include "dynamic/mutation_log.h"
#include "dynamic/reach_trees.h"
#include "graph/generator.h"
#include "util/random.h"

namespace tcdb {
namespace {

using Verdict = ReachIndex::Verdict;

// --- References ----------------------------------------------------------

// The per-pivot rule loop: pivot by pivot, an endpoint pivot decides
// outright, then u -> p -> v, then the two cuts.
Verdict ReferenceDecide(const IncrementalIndex& index, NodeId u, NodeId v) {
  const std::vector<NodeId>& pivots = index.pivots();
  for (int32_t i = 0; i < static_cast<int32_t>(pivots.size()); ++i) {
    if (u == pivots[i]) {
      return index.InForwardTree(i, v) ? Verdict::kYes : Verdict::kNo;
    }
    if (v == pivots[i]) {
      return index.InBackwardTree(i, u) ? Verdict::kYes : Verdict::kNo;
    }
    if (index.InBackwardTree(i, u) && index.InForwardTree(i, v)) {
      return Verdict::kYes;
    }
    if (index.InForwardTree(i, u) && !index.InForwardTree(i, v)) {
      return Verdict::kNo;
    }
    if (index.InBackwardTree(i, v) && !index.InBackwardTree(i, u)) {
      return Verdict::kNo;
    }
  }
  return Verdict::kUnknown;
}

// The per-draw pivot pick: every slot draws its candidates one by one,
// sizes each untaken draw with two fresh trees, and keeps the largest
// forward x backward product (ties to the earlier draw).
std::vector<NodeId> ReferencePivots(const LiveAdjacency& adj,
                                    const IncrementalOptions& options) {
  const NodeId n = adj.num_nodes();
  std::set<NodeId> taken;
  std::vector<NodeId> pivots;
  const int32_t slots = std::min<int32_t>(options.num_pivots, n);
  const int32_t draws = std::max<int32_t>(1, options.pivot_candidates_per_slot);
  Rng rng(options.seed);
  for (int32_t slot = 0; slot < slots; ++slot) {
    NodeId best = -1;
    int64_t best_score = -1;
    for (int32_t d = 0; d < draws; ++d) {
      const NodeId c = static_cast<NodeId>(rng.Uniform(0, n - 1));
      if (taken.contains(c)) continue;
      const ReachTree fwd(c, adj, /*forward=*/true);
      const ReachTree bwd(c, adj, /*forward=*/false);
      if (fwd.size() * bwd.size() > best_score) {
        best = c;
        best_score = fwd.size() * bwd.size();
      }
    }
    if (best < 0) continue;
    taken.insert(best);
    pivots.push_back(best);
  }
  return pivots;
}

// Live reachability by plain BFS.
bool Reaches(const LiveAdjacency& adj, NodeId u, NodeId v) {
  std::vector<bool> seen(static_cast<size_t>(adj.num_nodes()), false);
  std::vector<NodeId> frontier = {u};
  seen[static_cast<size_t>(u)] = true;
  for (size_t head = 0; head < frontier.size(); ++head) {
    if (frontier[head] == v) return true;
    for (const NodeId y : adj.Out(frontier[head])) {
      if (!seen[static_cast<size_t>(y)]) {
        seen[static_cast<size_t>(y)] = true;
        frontier.push_back(y);
      }
    }
  }
  return false;
}

ArcList FamilyArcs(NodeId n, bool cyclic, uint64_t seed) {
  GeneratorParams params;
  params.num_nodes = n;
  params.avg_out_degree = 3;
  params.locality = n / 3;
  params.seed = seed;
  return cyclic ? GenerateCyclicDigraph(params, /*num_back_arcs=*/n / 6)
                : GenerateDag(params);
}

// An index over a private adjacency, mutated as the MutationLog does it:
// the arc lands in the adjacency first, then the repair hook runs.
struct Trace {
  Trace(const ArcList& arcs, NodeId n, const IncrementalOptions& options)
      : adj(n) {
    for (const Arc& arc : arcs) {
      if (live.insert({arc.src, arc.dst}).second) {
        adj.Insert(arc.src, arc.dst);
      }
    }
    index = IncrementalIndex::Build(adj, options);
  }

  // One random insert of an absent arc or delete of a live one.
  void RandomOp(Rng* rng) {
    const NodeId n = adj.num_nodes();
    if (live.empty() || rng->Bernoulli(0.5)) {
      const NodeId u = static_cast<NodeId>(rng->Uniform(0, n - 1));
      const NodeId v = static_cast<NodeId>(rng->Uniform(0, n - 1));
      if (u == v || !live.insert({u, v}).second) return;
      adj.Insert(u, v);
      index->OnInsert(u, v);
      return;
    }
    auto it = live.begin();
    std::advance(it, rng->Uniform(0, static_cast<int64_t>(live.size()) - 1));
    const auto [u, v] = *it;
    live.erase(it);
    adj.Delete(u, v);
    index->OnDelete(u, v);
  }

  LiveAdjacency adj;
  std::set<std::pair<NodeId, NodeId>> live;
  std::unique_ptr<IncrementalIndex> index;
};

// Every membership bit equals its tree's certificate, and the bits of
// absent pivots are clear.
void ExpectMasksMatchTrees(const IncrementalIndex& index,
                           const std::string& where) {
  const int32_t k = static_cast<int32_t>(index.pivots().size());
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    const uint64_t fwd = index.ForwardMembership(v);
    const uint64_t bwd = index.BackwardMembership(v);
    for (int32_t i = 0; i < k; ++i) {
      ASSERT_EQ(((fwd >> i) & 1) != 0, index.InForwardTree(i, v))
          << where << ": forward bit " << i << " of node " << v;
      ASSERT_EQ(((bwd >> i) & 1) != 0, index.InBackwardTree(i, v))
          << where << ": backward bit " << i << " of node " << v;
    }
    if (k < 64) {
      ASSERT_EQ(fwd >> k, 0u) << where << ": node " << v;
      ASSERT_EQ(bwd >> k, 0u) << where << ": node " << v;
    }
  }
}

void ExpectDecideMatchesReference(const Trace& trace,
                                  const std::string& where) {
  const IncrementalIndex& index = *trace.index;
  for (NodeId u = 0; u < index.num_nodes(); ++u) {
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      const Verdict word = index.Decide(u, v);
      ASSERT_EQ(word, ReferenceDecide(index, u, v))
          << where << ": pair (" << u << ", " << v << ")";
      if (word != Verdict::kUnknown && u != v) {
        ASSERT_EQ(word == Verdict::kYes, Reaches(trace.adj, u, v))
            << where << ": pair (" << u << ", " << v << ")";
      }
    }
  }
}

// --- Membership words and the word Decide -----------------------------------

TEST(PivotSweepMembershipTest, MasksTrackTreesAfterEveryOp) {
  for (const bool cyclic : {false, true}) {
    for (const int32_t num_pivots : {0, 8, 64}) {
      for (const uint64_t seed : {1u, 2u}) {
        IncrementalOptions options;
        options.num_pivots = num_pivots;
        options.seed = seed;
        const NodeId n = 90;
        Trace trace(FamilyArcs(n, cyclic, seed), n, options);
        const std::string family = std::string(cyclic ? "cyclic" : "dag") +
                                   " pivots " + std::to_string(num_pivots) +
                                   " seed " + std::to_string(seed);
        if (num_pivots > 0) {
          ASSERT_GT(trace.index->pivots().size(), 0u) << family;
        }
        ExpectMasksMatchTrees(*trace.index, family + " build");
        Rng rng(seed * 31 + 7);
        for (int32_t op = 0; op < 400; ++op) {
          trace.RandomOp(&rng);
          ExpectMasksMatchTrees(*trace.index,
                                family + " op " + std::to_string(op));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(PivotSweepDecideTest, WordDecideEqualsPerPivotLoopOnAllPairs) {
  for (const bool cyclic : {false, true}) {
    for (const int32_t num_pivots : {0, 8, 64}) {
      IncrementalOptions options;
      options.num_pivots = num_pivots;
      const NodeId n = 70;
      Trace trace(FamilyArcs(n, cyclic, 5), n, options);
      const std::string family = std::string(cyclic ? "cyclic" : "dag") +
                                 " pivots " + std::to_string(num_pivots);
      ExpectDecideMatchesReference(trace, family + " build");
      Rng rng(11);
      for (int32_t op = 1; op <= 300; ++op) {
        trace.RandomOp(&rng);
        if (op % 50 == 0) {
          ExpectDecideMatchesReference(trace,
                                       family + " op " + std::to_string(op));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// --- Pivot selection ---------------------------------------------------------

TEST(PivotSweepSelectionTest, PicksTheSamePivotsAsPerDrawScoring) {
  struct Case {
    NodeId n;
    bool cyclic;
    int32_t num_pivots;
    int32_t per_slot;
  };
  // 64 pivots with 2 or 4 draws each take two and more sweeps of 64.
  const Case cases[] = {{300, false, 8, 4},  {300, true, 8, 4},
                        {200, false, 64, 2}, {200, true, 64, 4},
                        {40, false, 64, 4},  {500, true, 3, 1}};
  for (const Case& c : cases) {
    for (const uint64_t seed : {0x1cebeefu, 3u, 77u}) {
      IncrementalOptions options;
      options.num_pivots = c.num_pivots;
      options.pivot_candidates_per_slot = c.per_slot;
      options.seed = seed;
      LiveAdjacency adj(c.n);
      std::set<std::pair<NodeId, NodeId>> seen;
      for (const Arc& arc : FamilyArcs(c.n, c.cyclic, seed)) {
        if (seen.insert({arc.src, arc.dst}).second) {
          adj.Insert(arc.src, arc.dst);
        }
      }
      const auto index = IncrementalIndex::Build(adj, options);
      EXPECT_EQ(index->pivots(), ReferencePivots(adj, options))
          << "n " << c.n << (c.cyclic ? " cyclic" : " dag") << " pivots "
          << c.num_pivots << " per slot " << c.per_slot << " seed " << seed;
    }
  }
}

// --- The 64-pivot cap ---------------------------------------------------------

TEST(PivotSweepCapTest, ServiceRejectsMoreThan64PivotsAndServesAt64) {
  const NodeId n = 120;
  const ArcList arcs = FamilyArcs(n, /*cyclic=*/true, 9);
  auto log = MutationLog::Open(arcs, n);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  DynamicReachOptions options;
  options.incremental_options.num_pivots = 65;
  auto refused = DynamicReachService::Create(log.value().get(), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  options.incremental_options.num_pivots = 8;
  for (NodeId p = 0; p < 65; ++p) {
    options.incremental_options.pinned_pivots.push_back(p);
  }
  refused = DynamicReachService::Create(log.value().get(), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // Duplicates collapse: 65 entries, 64 distinct pivots, are accepted.
  options.incremental_options.pinned_pivots.back() = 0;
  auto pinned = DynamicReachService::Create(log.value().get(), options);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned.value()->incremental().pivots().size(), 64u);

  options.incremental_options.pinned_pivots = {3, n};
  refused = DynamicReachService::Create(log.value().get(), options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  // At the cap the service builds, mutates and answers exactly.
  options.incremental_options.pinned_pivots.clear();
  options.incremental_options.num_pivots = 64;
  options.cache_capacity = 0;
  auto service = DynamicReachService::Create(log.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_GT(service.value()->incremental().pivots().size(), 32u);
  Rng rng(4);
  for (int32_t op = 0; op < 200; ++op) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (u != v) {
      if (log.value()->HasArc(u, v)) {
        ASSERT_TRUE(service.value()->DeleteArc(u, v).ok());
      } else {
        ASSERT_TRUE(service.value()->InsertArc(u, v).ok());
      }
    }
    const NodeId a = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId b = static_cast<NodeId>(rng.Uniform(0, n - 1));
    auto answer = service.value()->Query(a, b);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer.value().reachable,
              Reaches(log.value()->adjacency(), a, b))
        << "op " << op << " pair (" << a << ", " << b << ")";
  }
  EXPECT_GT(service.value()->stats().incremental_served, 0);
}

}  // namespace
}  // namespace tcdb

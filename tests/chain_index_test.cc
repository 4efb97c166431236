// Differential and structural tests of the chain-decomposition
// reachability index (scale/chain_index.h): all-pairs agreement with the
// reference closure on small graphs, sampled agreement at moderate scale,
// cyclic inputs through the SCC-condensation front, chain invariants, the
// label budget (its exact boundary and the default that stops wide
// families early), and image round trips.

#include "scale/chain_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "scale_oracle.h"
#include "util/codec.h"

namespace tcdb {
namespace {

ChainIndex BuildOrDie(const Digraph& dag,
                      const ChainIndexOptions& options = {}) {
  auto built = ChainIndex::Build(dag, options);
  TCDB_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Exhaustive differential against the BFS reference closure.
void ExpectMatchesReference(const Digraph& dag) {
  const ChainIndex index = BuildOrDie(dag);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(dag);
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (NodeId v = 0; v < dag.NumNodes(); ++v) {
      const bool expected =
          u == v || std::binary_search(closure[u].begin(), closure[u].end(), v);
      ASSERT_EQ(index.Reaches(u, v), expected) << "u=" << u << " v=" << v;
    }
  }
}

TEST(ChainIndexTest, EmptyAndSingleton) {
  const ChainIndex empty = BuildOrDie(Digraph());
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_EQ(empty.num_chains(), 0);

  const ChainIndex one = BuildOrDie(Digraph(1, {}));
  EXPECT_EQ(one.num_chains(), 1);
  EXPECT_TRUE(one.Reaches(0, 0));
}

TEST(ChainIndexTest, HandDag) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3, 4 isolated.
  const Digraph dag(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const ChainIndex index = BuildOrDie(dag);
  EXPECT_TRUE(index.Reaches(0, 3));
  EXPECT_TRUE(index.Reaches(1, 3));
  EXPECT_FALSE(index.Reaches(1, 2));
  EXPECT_FALSE(index.Reaches(3, 0));
  EXPECT_FALSE(index.Reaches(0, 4));
  EXPECT_TRUE(index.Reaches(4, 4));
  ExpectMatchesReference(dag);
}

TEST(ChainIndexTest, RejectsCyclicInput) {
  const Digraph cyclic(3, {{0, 1}, {1, 2}, {2, 0}});
  const auto built = ChainIndex::Build(cyclic);
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChainIndexTest, MatchesReferenceOnPaperDags) {
  for (const uint64_t seed : {1u, 7u, 23u}) {
    GeneratorParams params;
    params.num_nodes = 400;
    params.avg_out_degree = 4;
    params.locality = 60;
    params.seed = seed;
    ExpectMatchesReference(Digraph(params.num_nodes, GenerateDag(params)));
  }
}

TEST(ChainIndexTest, MatchesReferenceOnEveryScaleFamily) {
  for (const ScaleFamily family : kAllScaleFamilies) {
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = 600;
    params.width = 16;
    params.degree = 3;
    params.locality = 48;
    params.seed = 9;
    SCOPED_TRACE(ScaleFamilyName(family));
    ExpectMatchesReference(BuildScaleGraph(params));
  }
}

TEST(ChainIndexTest, SampledDifferentialAtModerateScale) {
  for (const ScaleFamily family : kAllScaleFamilies) {
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = 20000;
    params.width = 32;
    params.degree = 4;
    params.locality = 128;
    params.seed = 3;
    const Digraph dag = BuildScaleGraph(params);
    // Wide-shallow and Kronecker need more than the default budget here.
    ChainIndexOptions options;
    options.max_label_bytes = int64_t{1} << 30;
    const ChainIndex index = BuildOrDie(dag, options);
    SCOPED_TRACE(ScaleFamilyName(family));
    EXPECT_TRUE(VerifySampledReachability(
        dag, /*num_sources=*/24, /*seed=*/11,
        [&index](NodeId u, NodeId v) { return index.Reaches(u, v); }));
  }
}

// Cyclic input: condense first, then answer original-id queries through
// the node map (SCC mates reach each other by definition).
TEST(ChainIndexTest, CyclicThroughCondensation) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kScaleFree;
  params.num_nodes = 1500;
  params.degree = 3;
  params.locality = 64;
  params.num_back_arcs = 120;
  params.seed = 5;
  const Digraph graph = BuildScaleGraph(params);
  ASSERT_FALSE(IsAcyclic(graph));
  const Condensation cond = Condense(graph);
  const ChainIndex index = BuildOrDie(cond.dag);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    const NodeId cu = cond.node_map[u];
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      const bool expected =
          u == v || std::binary_search(closure[u].begin(), closure[u].end(), v);
      const bool actual = cu == cond.node_map[v] ||
                          index.Reaches(cu, cond.node_map[v]);
      ASSERT_EQ(actual, expected) << "u=" << u << " v=" << v;
    }
  }
}

TEST(ChainIndexTest, ChainInvariants) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kLayered;
  params.num_nodes = 8000;
  params.width = 20;
  params.degree = 4;
  params.seed = 13;
  const Digraph dag = BuildScaleGraph(params);
  const ChainIndex index = BuildOrDie(dag);

  // The chain count is bounded below by the true antichain width (each
  // full layer is an antichain) and should stay near it — the
  // concatenable assignment is what keeps it from growing with depth.
  EXPECT_GE(index.num_chains(), params.width);
  EXPECT_LE(index.num_chains(), 3 * params.width);

  const NodeId n = dag.NumNodes();
  std::vector<std::vector<NodeId>> members(index.num_chains());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_GE(index.chain_id(v), 0);
    ASSERT_LT(index.chain_id(v), index.num_chains());
    members[index.chain_id(v)].push_back(v);
  }
  for (int32_t c = 0; c < index.num_chains(); ++c) {
    ASSERT_FALSE(members[c].empty()) << "chain " << c;
    // Positions on a chain are dense: 0..len-1, each used once.
    std::vector<NodeId> by_pos(members[c].size(), -1);
    for (const NodeId v : members[c]) {
      const int32_t pos = index.chain_position(v);
      ASSERT_GE(pos, 0);
      ASSERT_LT(pos, static_cast<int32_t>(by_pos.size()));
      ASSERT_EQ(by_pos[pos], -1);
      by_pos[pos] = v;
    }
    // Consecutive chain nodes are joined by reachability — the defining
    // chain property the query rule depends on.
    for (size_t i = 0; i + 1 < by_pos.size(); ++i) {
      ASSERT_TRUE(index.Reaches(by_pos[i], by_pos[i + 1]))
          << "chain " << c << " pos " << i;
    }
  }

  // The merge counters account for every arc exactly once. (No skips
  // here: layered predecessors are mutually incomparable, so none is ever
  // dominated — the skip rule needs transitive arcs, pinned below.)
  EXPECT_EQ(index.merges_done() + index.merges_skipped(), dag.NumArcs());
  EXPECT_EQ(index.merges_skipped(), 0);
}

// The transitive-reduction skip: in the triangle 0->1->2 with shortcut
// 0->2, predecessor 1 of node 2 is merged first (later topological
// position) and already carries 0 in its frontier, so the direct arc
// 0->2 is never merged.
TEST(ChainIndexTest, SkipsDominatedPredecessors) {
  const Digraph dag(3, {{0, 1}, {0, 2}, {1, 2}});
  const ChainIndex index = BuildOrDie(dag);
  EXPECT_EQ(index.merges_skipped(), 1);
  EXPECT_EQ(index.merges_done(), 2);
  ExpectMatchesReference(dag);
}

TEST(ChainIndexTest, BuildIsDeterministic) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kScaleFree;
  params.num_nodes = 5000;
  params.degree = 3;
  params.locality = 80;
  params.seed = 21;
  const Digraph dag = BuildScaleGraph(params);
  std::string first;
  BuildOrDie(dag).SerializeAppend(&first);
  std::string second;
  BuildOrDie(dag).SerializeAppend(&second);
  EXPECT_EQ(first, second);
}

TEST(ChainIndexTest, LabelBudgetGuard) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kLayered;
  params.num_nodes = 2000;
  params.width = 50;
  params.degree = 4;
  const Digraph dag = BuildScaleGraph(params);

  ChainIndexOptions tight;
  tight.max_label_bytes = 1024;  // far below the ~n*width*4 the labels need
  EXPECT_EQ(ChainIndex::Build(dag, tight).status().code(),
            StatusCode::kResourceExhausted);

  ChainIndexOptions ample;
  ample.max_label_bytes = int64_t{1} << 30;
  EXPECT_TRUE(ChainIndex::Build(dag, ample).ok());
}

// The budget check is exact: a cap equal to the finished frontier's bytes
// builds, one byte less is refused, and the report carries the figures.
TEST(ChainIndexTest, BudgetBoundaryIsExact) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kScaleFree;
  params.num_nodes = 1500;
  params.degree = 3;
  params.locality = 40;
  params.seed = 4;
  const Digraph dag = BuildScaleGraph(params);
  const ChainIndex reference = BuildOrDie(dag);
  const int64_t frontier_bytes = reference.FrontierBytes();

  ChainIndexOptions exact;
  exact.max_label_bytes = frontier_bytes;
  ChainBudgetReport report;
  auto fits = ChainIndex::Build(dag, exact, &report);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits.value().num_chains(), reference.num_chains());
  EXPECT_EQ(report.budget_bytes, frontier_bytes);
  EXPECT_EQ(report.needed_bytes, frontier_bytes);
  EXPECT_EQ(report.chains, reference.num_chains());
  EXPECT_EQ(report.stopped_at_rank, -1);

  ChainIndexOptions short_by_one;
  short_by_one.max_label_bytes = frontier_bytes - 1;
  EXPECT_EQ(ChainIndex::Build(dag, short_by_one, &report).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_GT(report.needed_bytes, report.budget_bytes);
  EXPECT_GE(report.stopped_at_rank, 0);
  EXPECT_LT(report.stopped_at_rank, params.num_nodes);

  ChainIndexOptions negative;
  negative.max_label_bytes = -1;
  EXPECT_EQ(ChainIndex::Build(dag, negative).status().code(),
            StatusCode::kInvalidArgument);
}

// Regression: max_label_bytes = 0 used to mean "unbounded", so Kronecker
// at n = 10^5 filled memory until std::bad_alloc aborted the process and
// wide-shallow ran for 14.5 s. The default budget (1 KiB per node, at
// least 64 MiB) now refuses both within the first few hundred ranks,
// while the width-64 layered family still fits.
TEST(ChainIndexTest, DefaultBudgetRefusesWideFamiliesEarly) {
  constexpr NodeId kNodes = 100000;
  EXPECT_EQ(ChainLabelBudget({}, kNodes), int64_t{kNodes} * 1024);
  EXPECT_EQ(ChainLabelBudget({}, 2000), int64_t{64} << 20);
  for (const ScaleFamily family :
       {ScaleFamily::kKronecker, ScaleFamily::kWideShallow}) {
    SCOPED_TRACE(ScaleFamilyName(family));
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = kNodes;
    const Digraph dag = BuildScaleGraph(params);
    ChainBudgetReport report;
    const auto built = ChainIndex::Build(dag, {}, &report);
    EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted)
        << built.status().ToString();
    EXPECT_EQ(report.budget_bytes, ChainLabelBudget({}, kNodes));
    EXPECT_GT(report.needed_bytes, report.budget_bytes);
    EXPECT_GE(report.stopped_at_rank, 0);
    EXPECT_LT(report.stopped_at_rank, 1000);
  }

  ScaleGraphParams layered;
  layered.family = ScaleFamily::kLayered;
  layered.num_nodes = kNodes;
  layered.width = 64;
  layered.degree = 4;
  ChainBudgetReport report;
  const auto built = ChainIndex::Build(BuildScaleGraph(layered), {}, &report);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(report.needed_bytes, built.value().FrontierBytes());
  EXPECT_LT(report.needed_bytes, report.budget_bytes);
}

TEST(ChainIndexTest, SerializeRoundTrip) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kDeepNarrow;
  params.num_nodes = 3000;
  params.width = 12;
  params.degree = 3;
  params.seed = 2;
  const Digraph dag = BuildScaleGraph(params);
  const ChainIndex index = BuildOrDie(dag);

  std::string image;
  index.SerializeAppend(&image);
  codec::Reader reader(image.data(), image.size());
  auto restored = ChainIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(restored.value().num_nodes(), index.num_nodes());
  EXPECT_EQ(restored.value().num_chains(), index.num_chains());
  for (NodeId u = 0; u < dag.NumNodes(); u += 7) {
    for (NodeId v = 0; v < dag.NumNodes(); v += 11) {
      ASSERT_EQ(restored.value().Reaches(u, v), index.Reaches(u, v))
          << "u=" << u << " v=" << v;
    }
  }

  // Every truncation point fails cleanly with Corruption.
  for (const size_t cut : {size_t{0}, size_t{3}, image.size() / 2,
                           image.size() - 1}) {
    codec::Reader truncated(image.data(), cut);
    EXPECT_EQ(ChainIndex::Deserialize(&truncated).status().code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace tcdb

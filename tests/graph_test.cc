// Graph toolkit tests: digraph, generator properties, topological sort,
// SCC/condensation, reachability, reference closures.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"

namespace tcdb {
namespace {

TEST(DigraphTest, DefaultConstructedIsEmpty) {
  const Digraph graph;
  EXPECT_EQ(graph.NumNodes(), 0);
  EXPECT_EQ(graph.NumArcs(), 0);
}

TEST(DigraphTest, BasicAccessors) {
  const Digraph graph(4, {{0, 1}, {0, 2}, {2, 3}});
  EXPECT_EQ(graph.NumNodes(), 4);
  EXPECT_EQ(graph.NumArcs(), 3);
  EXPECT_EQ(graph.OutDegree(0), 2);
  EXPECT_EQ(graph.OutDegree(1), 0);
  const auto successors = graph.Successors(0);
  EXPECT_EQ(std::vector<NodeId>(successors.begin(), successors.end()),
            (std::vector<NodeId>{1, 2}));
}

TEST(DigraphTest, ToArcsRoundTrip) {
  const ArcList arcs = {{0, 1}, {0, 3}, {2, 3}};
  EXPECT_EQ(Digraph(4, arcs).ToArcs(), arcs);
}

TEST(DigraphTest, Reversed) {
  const Digraph graph(3, {{0, 1}, {0, 2}, {1, 2}});
  const Digraph reversed = graph.Reversed();
  EXPECT_EQ(reversed.OutDegree(2), 2);
  EXPECT_EQ(reversed.OutDegree(0), 0);
  EXPECT_EQ(reversed.Reversed().ToArcs(), graph.ToArcs());
}

// --- Generator properties (parameterized over the family grid) ---------

struct GenCase {
  int32_t degree;
  int32_t locality;
};

class GeneratorPropertyTest : public testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, RespectsInvariants) {
  const GenCase param = GetParam();
  const GeneratorParams params{500, param.degree, param.locality, 31};
  const ArcList arcs = GenerateDag(params);

  EXPECT_TRUE(std::is_sorted(arcs.begin(), arcs.end()));
  EXPECT_EQ(std::adjacent_find(arcs.begin(), arcs.end()), arcs.end())
      << "duplicate arcs";
  for (const Arc& arc : arcs) {
    EXPECT_GT(arc.dst, arc.src) << "must point forward (acyclic)";
    EXPECT_LE(arc.dst, std::min(arc.src + param.locality,
                                params.num_nodes - 1))
        << "locality bound";
  }
  // Out-degree never exceeds 2F.
  const Digraph graph(params.num_nodes, arcs);
  for (NodeId v = 0; v < params.num_nodes; ++v) {
    EXPECT_LE(graph.OutDegree(v), 2 * param.degree);
  }
  EXPECT_TRUE(IsAcyclic(graph));
  // Arc count is below n*F (duplicates removed, locality caps), but not
  // degenerate.
  EXPECT_LE(static_cast<int64_t>(arcs.size()),
            static_cast<int64_t>(params.num_nodes) * param.degree * 2);
  EXPECT_GT(arcs.size(), 0u);
}

TEST_P(GeneratorPropertyTest, DeterministicInSeed) {
  const GenCase param = GetParam();
  GeneratorParams params{300, param.degree, param.locality, 77};
  const ArcList a = GenerateDag(params);
  const ArcList b = GenerateDag(params);
  EXPECT_EQ(a, b);
  params.seed = 78;
  EXPECT_NE(GenerateDag(params), a);
}

INSTANTIATE_TEST_SUITE_P(FamilyGrid, GeneratorPropertyTest,
                         testing::Values(GenCase{2, 20}, GenCase{2, 200},
                                         GenCase{5, 20}, GenCase{5, 2000},
                                         GenCase{20, 200}, GenCase{50, 20},
                                         GenCase{50, 2000}),
                         [](const testing::TestParamInfo<GenCase>& info) {
                           return "F" + std::to_string(info.param.degree) +
                                  "_l" + std::to_string(info.param.locality);
                         });

TEST(GeneratorTest, CyclicGeneratorProducesCycles) {
  const ArcList arcs = GenerateCyclicDigraph({100, 3, 30, 5}, 20);
  EXPECT_FALSE(IsAcyclic(Digraph(100, arcs)));
}

TEST(GeneratorTest, SourceSampling) {
  const auto sample = SampleSourceNodes(100, 10, 42);
  EXPECT_EQ(sample.size(), 10u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_EQ(std::set<NodeId>(sample.begin(), sample.end()).size(), 10u);
  for (NodeId s : sample) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 100);
  }
  EXPECT_EQ(SampleSourceNodes(100, 10, 42), sample);
  EXPECT_NE(SampleSourceNodes(100, 10, 43), sample);
  EXPECT_EQ(SampleSourceNodes(5, 5, 1).size(), 5u);
  EXPECT_TRUE(SampleSourceNodes(5, 0, 1).empty());
}

// --- Topological sort ---------------------------------------------------

TEST(TopoSortTest, RespectsArcs) {
  const ArcList arcs = GenerateDag({200, 4, 50, 3});
  const Digraph graph(200, arcs);
  auto order = TopologicalSort(graph);
  ASSERT_TRUE(order.ok());
  const auto positions = OrderPositions(order.value());
  for (const Arc& arc : arcs) {
    EXPECT_LT(positions[arc.src], positions[arc.dst]);
  }
}

TEST(TopoSortTest, DetectsCycle) {
  EXPECT_FALSE(TopologicalSort(Digraph(3, {{0, 1}, {1, 2}, {2, 0}})).ok());
  EXPECT_FALSE(IsAcyclic(Digraph(2, {{0, 1}, {1, 0}})));
}

TEST(TopoSortTest, DeterministicSmallestFirst) {
  // 0 and 2 are both ready; 0 must come first.
  auto order = TopologicalSort(Digraph(3, {{2, 1}}));
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order.value(), (std::vector<NodeId>{0, 2, 1}));
}

// --- Reachability --------------------------------------------------------

TEST(ReachableTest, FindsMagicSubgraph) {
  const Digraph graph(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(ReachableFrom(graph, {0}), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(ReachableFrom(graph, {3}), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(ReachableFrom(graph, {0, 3}),
            (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ReachableFrom(graph, {5}), (std::vector<NodeId>{5}));
}

// --- SCC / condensation --------------------------------------------------

TEST(SccTest, SingleComponentCycle) {
  const auto scc =
      StronglyConnectedComponents(Digraph(3, {{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_EQ(scc.num_components, 1);
}

TEST(SccTest, DagHasSingletonComponents) {
  const Digraph graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto scc = StronglyConnectedComponents(graph);
  EXPECT_EQ(scc.num_components, 4);
  std::set<int32_t> distinct(scc.component.begin(), scc.component.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(SccTest, ReverseTopologicalNumbering) {
  const Digraph graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto scc = StronglyConnectedComponents(graph);
  for (NodeId v = 0; v < 4; ++v) {
    for (NodeId w : graph.Successors(v)) {
      EXPECT_GT(scc.component[v], scc.component[w]);
    }
  }
}

TEST(SccTest, ComponentsMatchMutualReachability) {
  // Property: u and v share a component iff each reaches the other.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const ArcList arcs = GenerateCyclicDigraph({60, 3, 20, seed}, 15);
    const Digraph graph(60, arcs);
    const auto scc = StronglyConnectedComponents(graph);
    // Reachability matrix by BFS from every node.
    std::vector<std::vector<bool>> reach(60, std::vector<bool>(60, false));
    for (NodeId v = 0; v < 60; ++v) {
      for (const NodeId w : ReachableFrom(graph, {v})) reach[v][w] = true;
    }
    for (NodeId u = 0; u < 60; ++u) {
      for (NodeId v = 0; v < 60; ++v) {
        const bool same = scc.component[u] == scc.component[v];
        const bool mutual = reach[u][v] && reach[v][u];
        EXPECT_EQ(same, mutual) << "seed " << seed << " u=" << u
                                << " v=" << v;
      }
    }
  }
}

TEST(CondensationTest, CollapsesCycles) {
  // Two 2-cycles joined by an arc: condensation is a 2-node chain.
  const Digraph graph(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  const Condensation condensed = Condense(graph);
  EXPECT_EQ(condensed.dag.NumNodes(), 2);
  EXPECT_EQ(condensed.dag.NumArcs(), 1);
  EXPECT_TRUE(IsAcyclic(condensed.dag));
  EXPECT_EQ(condensed.node_map[0], condensed.node_map[1]);
  EXPECT_EQ(condensed.node_map[2], condensed.node_map[3]);
  EXPECT_NE(condensed.node_map[0], condensed.node_map[2]);
}

TEST(CondensationTest, RandomCyclicGraphCondensesToDag) {
  const ArcList arcs = GenerateCyclicDigraph({200, 4, 40, 9}, 40);
  const Condensation condensed = Condense(Digraph(200, arcs));
  EXPECT_TRUE(IsAcyclic(condensed.dag));
  EXPECT_LT(condensed.dag.NumNodes(), 200);
  // Reachability is preserved through the mapping.
  const Digraph original(200, arcs);
  const auto original_reach = ReachableFrom(original, {0});
  const auto condensed_reach =
      ReachableFrom(condensed.dag, {condensed.node_map[0]});
  const std::set<NodeId> reach_set(condensed_reach.begin(),
                                   condensed_reach.end());
  for (const NodeId v : original_reach) {
    EXPECT_TRUE(reach_set.contains(condensed.node_map[v])) << v;
  }
}

// Condensation ids are reverse-topological: every arc of the condensed DAG
// runs from a higher id to a lower one, on random cyclic and acyclic
// inputs. The search core's "u < v means no" test relies on it.
TEST(CondensationTest, IdsAreReverseTopological) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const GeneratorParams params{150 + static_cast<NodeId>(seed) * 10,
                                 2 + static_cast<int32_t>(seed % 5),
                                 10 + static_cast<int32_t>(seed) * 7, seed};
    for (const bool cyclic : {false, true}) {
      const ArcList arcs =
          cyclic ? GenerateCyclicDigraph(params, params.num_nodes / 5)
                 : GenerateDag(params);
      const Digraph dag = Condense(Digraph(params.num_nodes, arcs)).dag;
      for (NodeId v = 0; v < dag.NumNodes(); ++v) {
        for (const NodeId s : dag.Successors(v)) {
          ASSERT_GT(v, s) << "seed " << seed << (cyclic ? " cyclic" : "");
        }
      }
    }
  }
}

// --- Reference closure ----------------------------------------------------

TEST(ReferenceClosureTest, HandComputedExample) {
  // Figure 1-style diamond: 0 -> {1, 2}, 1 -> 3, 2 -> 3.
  const Digraph graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto closure = ReferenceClosure(graph);
  EXPECT_EQ(closure[0], (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(closure[1], (std::vector<NodeId>{3}));
  EXPECT_EQ(closure[3], (std::vector<NodeId>{}));
}

TEST(ReferenceClosureTest, PartialMatchesFull) {
  const ArcList arcs = GenerateDag({150, 4, 40, 17});
  const Digraph graph(150, arcs);
  const auto full = ReferenceClosure(graph);
  const std::vector<NodeId> sources = {3, 77, 149};
  const auto partial = ReferencePartialClosure(graph, sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(partial[i], full[sources[i]]);
  }
}

}  // namespace
}  // namespace tcdb

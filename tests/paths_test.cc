// Path reconstruction from SPN spanning trees: every returned path must be
// a real path in the input graph, and a path must exist for every
// (source, successor) pair.

#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "core/paths.h"
#include "graph/generator.h"
#include "succ/tree_codec.h"

namespace tcdb {
namespace {

TEST(PathFromTreeTest, HandBuiltTree) {
  FlatTree tree(0);
  const int32_t one = tree.AddChild(0, 1);
  tree.AddChild(0, 2);
  const int32_t three = tree.AddChild(one, 3);
  tree.AddChild(three, 4);
  const std::vector<int32_t> encoded = EncodeTree(tree);

  auto path = PathFromSpanningTree(encoded, 4);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<NodeId>{0, 1, 3, 4}));
  path = PathFromSpanningTree(encoded, 2);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<NodeId>{0, 2}));
  EXPECT_FALSE(PathFromSpanningTree(encoded, 9).ok());
  EXPECT_FALSE(PathFromSpanningTree(encoded, 0).ok());  // root is not its own
  EXPECT_FALSE(PathFromSpanningTree(std::vector<int32_t>{1}, 0).ok());
  // A child entry with no parent marker before it is rejected, not walked.
  EXPECT_FALSE(PathFromSpanningTree(std::vector<int32_t>{3, 2}, 1).ok());
}

class SpnPathPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(SpnPathPropertyTest, AllPathsAreRealAndComplete) {
  const GeneratorParams params{150, 4, 40, GetParam()};
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  auto db = TcDatabase::Create(arcs, params.num_nodes);
  ASSERT_TRUE(db.ok());

  const std::vector<NodeId> sources =
      SampleSourceNodes(params.num_nodes, 6, GetParam() + 7);
  ExecOptions options;
  options.capture_answer = true;
  options.capture_trees = true;
  auto run = db.value()->Execute(Algorithm::kSpn, QuerySpec::Partial(sources),
                                 options);
  ASSERT_TRUE(run.ok());

  const PathIndex index(run.value());
  EXPECT_EQ(index.size(), sources.size());

  // Fast arc membership for validation.
  std::set<std::pair<NodeId, NodeId>> arc_set;
  for (const Arc& arc : arcs) arc_set.emplace(arc.src, arc.dst);

  for (const auto& [source, successors] : run.value().answer) {
    for (const NodeId target : successors) {
      auto path = index.FindPath(source, target);
      ASSERT_TRUE(path.ok()) << source << " -> " << target;
      const std::vector<NodeId>& nodes = path.value();
      ASSERT_GE(nodes.size(), 2u);
      EXPECT_EQ(nodes.front(), source);
      EXPECT_EQ(nodes.back(), target);
      for (size_t i = 0; i + 1 < nodes.size(); ++i) {
        EXPECT_TRUE(arc_set.contains({nodes[i], nodes[i + 1]}))
            << "bogus arc " << nodes[i] << " -> " << nodes[i + 1];
      }
    }
    // And nothing beyond the closure: a node outside the successor set has
    // no path.
    for (NodeId probe = 0; probe < params.num_nodes; probe += 37) {
      const bool reachable =
          std::binary_search(successors.begin(), successors.end(), probe);
      EXPECT_EQ(index.FindPath(source, probe).ok(), reachable)
          << source << " -> " << probe;
    }
  }
  // Unknown source.
  NodeId not_a_source = 0;
  while (std::binary_search(sources.begin(), sources.end(), not_a_source)) {
    ++not_a_source;
  }
  EXPECT_FALSE(index.FindPath(not_a_source, 1).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpnPathPropertyTest,
                         testing::Range<uint64_t>(1, 6));

TEST(SpnPathTest, TreesOnlyCapturedWhenRequested) {
  auto db = TcDatabase::Create({Arc{0, 1}, Arc{1, 2}}, 3);
  ASSERT_TRUE(db.ok());
  ExecOptions options;
  options.capture_answer = true;
  auto run = db.value()->Execute(Algorithm::kSpn, QuerySpec::Full(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().spanning_trees.empty());
  options.capture_trees = true;
  run = db.value()->Execute(Algorithm::kSpn, QuerySpec::Full(), options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().spanning_trees.size(), 3u);
}

}  // namespace
}  // namespace tcdb

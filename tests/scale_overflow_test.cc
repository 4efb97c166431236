// Int32-overflow audit for the million-node path (ISSUE: pair/arc-count
// arithmetic at n >= 10^5). Node COUNTS fit int32 by the NodeId contract,
// but anything that counts PAIRS or ARCS — cone products, label bytes,
// closure sizes, serving counters — reaches ~10^10 at n = 10^5 and must
// be 64-bit end to end. The static_asserts pin the audited signatures so
// a future narrowing is a compile error, not a wrapped bench number; the
// runtime tests drive the formerly-suspect arithmetic at boundary sizes
// past 10^5 that still fit test memory.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "dynamic/reach_trees.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "reach/reach_stats.h"
#include "scale/chain_index.h"

namespace tcdb {
namespace {

// --- The audit's conclusions as compile-time facts. Every one of these
// is a quantity that exceeds int32 at scale (or is multiplied into one).
static_assert(
    std::is_same_v<decltype(std::declval<const Digraph&>().NumArcs()),
                   int64_t>,
    "arc counts are 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<const LiveAdjacency&>().num_arcs()),
                   int64_t>,
    "live arc counts are 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<const ReachTree&>().size()),
                   int64_t>,
    "cone sizes multiply into pair counts; must be 64-bit");
static_assert(
    std::is_same_v<decltype(std::declval<const ChainIndex&>().LabelBytes()),
                   int64_t>,
    "label footprint is n*k*4 bytes; must be 64-bit");
static_assert(std::is_same_v<decltype(CountScaleArcs(ScaleGraphParams{})),
                             int64_t>,
              "streamed arc counts are 64-bit");
static_assert(std::is_same_v<decltype(ReachStats{}.queries), int64_t>,
              "serving counters are 64-bit");
static_assert(
    std::is_same_v<std::remove_cvref_t<decltype(ReachStats{}.rule_decided[0])>,
                   int64_t>,
    "per-rule counters are 64-bit");

// The pivot scorer of dynamic/incremental.cc ranks nodes by
// forward-cone x backward-cone — the canonical n x n
// intermediate. On a 2*10^5-node path the midpoint's product is ~10^10;
// an int32 product wraps negative and the scorer would rank the best
// pivot LAST.
TEST(ScaleOverflowTest, ConeProductExceedsInt32OnLongPath) {
  const NodeId n = 200001;
  LiveAdjacency adj(n);
  for (NodeId v = 0; v + 1 < n; ++v) adj.Insert(v, v + 1);
  const NodeId mid = n / 2;
  const ReachTree fwd(mid, adj, /*forward=*/true);
  const ReachTree bwd(mid, adj, /*forward=*/false);
  EXPECT_EQ(fwd.size(), static_cast<int64_t>(n) - mid);
  EXPECT_EQ(bwd.size(), static_cast<int64_t>(mid) + 1);
  const int64_t score = fwd.size() * bwd.size();
  EXPECT_EQ(score, (static_cast<int64_t>(n) - mid) * (mid + 1));
  EXPECT_GT(score,
            static_cast<int64_t>(std::numeric_limits<int32_t>::max()));
}

// One chain spanning the whole graph just past the 10^5 boundary: chain
// positions, frontier values (position + 1) and the ragged row offsets
// all carry six-digit values through the query arithmetic.
TEST(ScaleOverflowTest, ChainPositionsPastHundredThousand) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kDeepNarrow;
  params.num_nodes = 100001;
  params.width = 1;  // the lane spine degenerates to a single path
  params.degree = 1;
  const Digraph graph = BuildScaleGraph(params);
  ASSERT_EQ(graph.NumArcs(), params.num_nodes - 1);
  auto built = ChainIndex::Build(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ChainIndex& index = built.value();
  EXPECT_EQ(index.num_chains(), 1);
  EXPECT_EQ(index.chain_position(100000), 100000);
  EXPECT_TRUE(index.Reaches(0, 100000));
  EXPECT_TRUE(index.Reaches(99999, 100000));
  EXPECT_FALSE(index.Reaches(100000, 0));
  EXPECT_FALSE(index.Reaches(1, 0));
  // LabelBytes is exact int64 arithmetic: bytes/node * n recovers it.
  EXPECT_EQ(index.LabelBytes(),
            static_cast<int64_t>(index.BytesPerNode() *
                                     static_cast<double>(params.num_nodes) +
                                 0.5));
}

// The streamed arc count, the two-pass CSR build, and the reference
// oracle agree at a boundary size: a layered graph just past 10^5 nodes
// whose single-source cone covers most of the graph (cone sizes are the
// other factor of the n x n product).
TEST(ScaleOverflowTest, StreamCountAndOracleAgreeAtBoundary) {
  ScaleGraphParams params;
  params.family = ScaleFamily::kLayered;
  params.num_nodes = 100001;
  params.width = 64;
  params.degree = 4;
  const int64_t count = CountScaleArcs(params);
  const Digraph graph = BuildScaleGraph(params);
  EXPECT_EQ(graph.NumArcs(), count);
  EXPECT_GT(count, params.num_nodes);  // several arcs per node

  // Node 0 heads a spine lane, so its cone contains every later node on
  // lane 0 — ~10^5 / width members at minimum; in practice the random
  // cross arcs make it most of the graph.
  const auto cones = ReferencePartialClosure(graph, {0});
  ASSERT_EQ(cones.size(), 1u);
  EXPECT_GT(static_cast<int64_t>(cones[0].size()),
            static_cast<int64_t>(params.num_nodes) / 2);
}

// Serving counters are 64-bit through Merge: two lanes each claiming
// 1.5 billion queries merge to 3 billion, past int32, without wrapping.
TEST(ScaleOverflowTest, StatsCountersMergeBeyondInt32) {
  ReachStats a;
  ReachStats b;
  a.queries = 1500000000;
  a.positive_answers = 1500000000;
  a.rule_decided[0] = 1500000000;
  b.queries = 1500000000;
  b.positive_answers = 700000000;
  b.rule_decided[0] = 1500000000;
  a.Merge(b);
  EXPECT_EQ(a.queries, int64_t{3000000000});
  EXPECT_EQ(a.positive_answers, int64_t{2200000000});
  EXPECT_EQ(a.rule_decided[0], int64_t{3000000000});
}

}  // namespace
}  // namespace tcdb

// ReachCore::DecideBatch against ReachCore::Decide, pair by pair. On a
// chain core DecideBatch runs a software pipeline that prefetches the
// node map, the chain labels and the frontier slot of later queries; it
// must change no verdict and no rule, for every batch size around its
// lookahead distances and for endpoints at the edges of the id range. The
// sanitized serving step of tools/check.sh runs this test under
// ASan/UBSan, so a lookahead index past the batch is a report.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "reach/reach_service.h"
#include "util/random.h"

namespace tcdb {
namespace {

struct Input {
  std::string name;
  ArcList arcs;
  NodeId num_nodes;
};

std::vector<Input> Inputs() {
  std::vector<Input> inputs;
  for (const char* family : {"G5", "G12"}) {
    const GeneratorParams params = CatalogParams(FamilyByName(family), 0);
    inputs.push_back({family, GenerateDag(params), params.num_nodes});
  }
  const GeneratorParams cyclic{400, 3, 40, 5};
  inputs.push_back(
      {"cyclic", GenerateCyclicDigraph(cyclic, 30), cyclic.num_nodes});
  ScaleGraphParams layered;  // width 64, in-degree 4
  layered.num_nodes = 100000;
  inputs.push_back({"layered", ScaleArcList(layered), layered.num_nodes});
  return inputs;
}

// Pairs at the edges of the id range: the first and last ids both ways,
// src == dst, and two distinct members of one strongly connected
// component when the input has one.
std::vector<std::pair<NodeId, NodeId>> EdgePairs(const ReachCore& core) {
  const NodeId last = core.num_input_nodes - 1;
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, last}, {last, 0}, {0, 0}, {last, last}, {last / 2, last / 2}};
  std::vector<NodeId> member(core.dag.NumNodes(), -1);
  for (NodeId v = 0; v <= last; ++v) {
    NodeId& first = member[core.node_map[v]];
    if (first < 0) {
      first = v;
    } else {
      pairs.emplace_back(first, v);
      break;
    }
  }
  return pairs;
}

void ExpectBatchMatchesDecide(
    const ReachCore& core,
    const std::vector<std::pair<NodeId, NodeId>>& batch) {
  std::vector<ReachIndex::Verdict> verdicts(batch.size());
  std::vector<ReachRule> rules(batch.size());
  core.DecideBatch(batch, verdicts, rules);
  for (size_t i = 0; i < batch.size(); ++i) {
    ReachRule rule = ReachRule::kSelf;
    const ReachIndex::Verdict expected =
        core.Decide(batch[i].first, batch[i].second, &rule);
    ASSERT_EQ(verdicts[i], expected)
        << "pair " << i << " of " << batch.size() << ": (" << batch[i].first
        << ", " << batch[i].second << ")";
    if (expected != ReachIndex::Verdict::kUnknown) {
      ASSERT_EQ(rules[i], rule) << "pair " << i << " of " << batch.size();
    }
  }
}

class DecideBatchTest : public testing::TestWithParam<ReachBackend> {};

TEST_P(DecideBatchTest, MatchesDecidePairByPair) {
  const size_t d1 = ReachCore::kNodeMapLookahead;
  for (const Input& input : Inputs()) {
    SCOPED_TRACE(input.name);
    ReachIndexOptions options;
    options.backend = GetParam();
    auto built = ReachCore::Build(input.arcs, input.num_nodes, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ReachCore& core = *built.value();
    ASSERT_EQ(core.backend, GetParam());
    const std::vector<std::pair<NodeId, NodeId>> edges = EdgePairs(core);
    Rng rng(11);
    for (const size_t size : {size_t{0}, size_t{1}, size_t{2}, d1 - 1, d1,
                              d1 + 1, size_t{256}}) {
      SCOPED_TRACE(size);
      std::vector<std::pair<NodeId, NodeId>> batch(size);
      for (auto& [src, dst] : batch) {
        src = static_cast<NodeId>(rng.Uniform(0, input.num_nodes - 1));
        dst = static_cast<NodeId>(rng.Uniform(0, input.num_nodes - 1));
      }
      ExpectBatchMatchesDecide(core, batch);
      // The edge pairs first, then last: the pipeline's fill and drain.
      for (size_t i = 0; i < size && i < edges.size(); ++i) {
        batch[i] = edges[i];
      }
      ExpectBatchMatchesDecide(core, batch);
      for (size_t i = 0; i < size && i < edges.size(); ++i) {
        batch[size - 1 - i] = edges[i];
      }
      ExpectBatchMatchesDecide(core, batch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DecideBatchTest,
                         testing::Values(ReachBackend::kChain,
                                         ReachBackend::kLabels),
                         [](const testing::TestParamInfo<ReachBackend>& info) {
                           return info.param == ReachBackend::kChain
                                      ? std::string("Chain")
                                      : std::string("Labels");
                         });

}  // namespace
}  // namespace tcdb

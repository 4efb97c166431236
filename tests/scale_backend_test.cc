// The chain backend behind the serving stack: ReachCore/ReachService with
// ReachBackend::kChain must answer identically to the kLabels backend and
// the reference closure — including cyclic inputs through the
// SCC-condensation front — with every non-trivial query decided at the
// chain-frontier stage (no BFS or session fallback ever). Also covers the
// core image round trip, multi-threaded ReachServer clients over a chain
// core, and the dynamic rebuild pipeline with a chain-backend rebuilder.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic_trace.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "scale_oracle.h"
#include "util/codec.h"
#include "util/random.h"

namespace tcdb {
namespace {

ArcList CyclicPaperArcs(NodeId n, uint64_t seed) {
  GeneratorParams params;
  params.num_nodes = n;
  params.avg_out_degree = 4;
  params.locality = 50;
  params.seed = seed;
  return GenerateCyclicDigraph(params, /*num_back_arcs=*/n / 10);
}

TEST(ScaleBackendTest, ChainServiceMatchesLabelsAndReference) {
  const NodeId n = 300;
  const ArcList arcs = CyclicPaperArcs(n, 17);
  const Digraph graph(n, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  ReachServiceOptions chain_options;
  chain_options.index.backend = ReachBackend::kChain;
  chain_options.cache_capacity = 0;  // keep every stage visible
  auto chain_service = ReachService::Build(arcs, n, chain_options);
  ASSERT_TRUE(chain_service.ok()) << chain_service.status().ToString();

  ReachServiceOptions label_options;
  label_options.index.backend = ReachBackend::kLabels;
  label_options.cache_capacity = 0;
  auto label_service = ReachService::Build(arcs, n, label_options);
  ASSERT_TRUE(label_service.ok()) << label_service.status().ToString();

  const ReachCore& core = chain_service.value()->core();
  EXPECT_EQ(core.backend, ReachBackend::kChain);
  EXPECT_TRUE(core.condensed());

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const bool expected =
          u == v || std::binary_search(closure[u].begin(), closure[u].end(), v);
      auto chain_answer = chain_service.value()->Query(u, v);
      ASSERT_TRUE(chain_answer.ok());
      ASSERT_EQ(chain_answer.value().reachable, expected)
          << "u=" << u << " v=" << v;
      auto label_answer = label_service.value()->Query(u, v);
      ASSERT_TRUE(label_answer.ok());
      ASSERT_EQ(label_answer.value().reachable, expected);
      // The chain backend is total: same condensation node decides
      // trivially, everything else at the chain frontier.
      if (core.node_map[u] == core.node_map[v]) {
        EXPECT_EQ(chain_answer.value().stage, ReachStage::kTrivial);
      } else {
        EXPECT_EQ(chain_answer.value().stage, ReachStage::kChainFrontier);
      }
    }
  }
  // No chain-backend query ever reached the BFS rung.
  const ReachStats& stats = chain_service.value()->stats();
  EXPECT_EQ(stats.Decided(ReachStage::kPrunedBfs), 0);
  EXPECT_EQ(stats.Decided(ReachStage::kChainFrontier),
            stats.queries - stats.Decided(ReachStage::kTrivial));
}

TEST(ScaleBackendTest, ChainCoreSampledOnScaleFamilies) {
  for (const ScaleFamily family : kAllScaleFamilies) {
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = 12000;
    params.width = 24;
    params.degree = 3;
    params.locality = 96;
    params.num_back_arcs = 200;  // cyclic: exercises the condensation front
    params.seed = 29;
    const ArcList arcs = ScaleArcList(params);
    const Digraph graph(params.num_nodes, arcs);

    ReachIndexOptions options;
    options.backend = ReachBackend::kChain;
    // Wide-shallow and Kronecker need more than the default budget here.
    options.chain.max_label_bytes = int64_t{1} << 30;
    auto core = ReachCore::Build(arcs, params.num_nodes, options);
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    const ReachCore& c = *core.value();
    SCOPED_TRACE(ScaleFamilyName(family));
    EXPECT_TRUE(VerifySampledReachability(
        graph, /*num_sources=*/16, /*seed=*/7, [&c](NodeId u, NodeId v) {
          const NodeId cu = c.node_map[u];
          const NodeId cv = c.node_map[v];
          return cu == cv || c.chain.Reaches(cu, cv);
        }));
  }
}

TEST(ScaleBackendTest, ChainCoreImageRoundTrip) {
  const NodeId n = 500;
  const ArcList arcs = CyclicPaperArcs(n, 31);
  ReachIndexOptions options;
  options.backend = ReachBackend::kChain;
  auto core = ReachCore::Build(arcs, n, options);
  ASSERT_TRUE(core.ok()) << core.status().ToString();

  std::string image;
  core.value()->SerializeAppend(&image);
  codec::Reader reader(image.data(), image.size());
  auto restored = ReachCore::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(restored.value()->backend, ReachBackend::kChain);
  EXPECT_EQ(restored.value()->chain.num_nodes(), core.value()->dag.NumNodes());

  // Query-identical across the round trip, bit-identical when re-imaged.
  for (NodeId u = 0; u < n; u += 3) {
    for (NodeId v = 0; v < n; v += 5) {
      const ReachCore& image_core = *restored.value();
      ASSERT_EQ(image_core.DecideCondensed(image_core.node_map[u],
                                           image_core.node_map[v]),
                core.value()->DecideCondensed(core.value()->node_map[u],
                                              core.value()->node_map[v]))
          << "u=" << u << " v=" << v;
    }
  }
  std::string reimage;
  restored.value()->SerializeAppend(&reimage);
  EXPECT_EQ(image, reimage);
}

TEST(ScaleBackendTest, ChainCoreRejectsTruncatedImage) {
  const ArcList arcs = CyclicPaperArcs(200, 3);
  ReachIndexOptions options;
  options.backend = ReachBackend::kChain;
  auto core = ReachCore::Build(arcs, 200, options);
  ASSERT_TRUE(core.ok());
  std::string image;
  core.value()->SerializeAppend(&image);
  for (const size_t cut :
       {size_t{0}, size_t{4}, image.size() / 2, image.size() - 1}) {
    codec::Reader truncated(image.data(), cut);
    EXPECT_EQ(ReachCore::Deserialize(&truncated).status().code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

// Multi-threaded serving over one shared chain core: concurrent client
// threads fire batches at a ReachServer while every answer is checked
// against the reference closure.
TEST(ScaleBackendTest, ServerOverChainCoreUnderConcurrentClients) {
  const NodeId n = 400;
  const ArcList arcs = CyclicPaperArcs(n, 53);
  const Digraph graph(n, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  ReachServerOptions options;
  options.service.index.backend = ReachBackend::kChain;
  auto server = ReachServer::Start(arcs, n, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(server.value()->core().backend, ReachBackend::kChain);

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 25;
  constexpr int kBatchSize = 64;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(kBatchSize);
        for (int i = 0; i < kBatchSize; ++i) {
          pairs.emplace_back(static_cast<NodeId>(rng.Uniform(0, n - 1)),
                             static_cast<NodeId>(rng.Uniform(0, n - 1)));
        }
        auto answers = server.value()->QueryBatch(pairs);
        if (!answers.ok()) {
          failures[c] = answers.status().ToString();
          return;
        }
        for (size_t i = 0; i < pairs.size(); ++i) {
          const auto [u, v] = pairs[i];
          const bool expected =
              u == v ||
              std::binary_search(closure[u].begin(), closure[u].end(), v);
          if (answers.value()[i].reachable != expected) {
            failures[c] = "mismatch at (" + std::to_string(u) + ", " +
                          std::to_string(v) + ")";
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  // The chain backend served everything without fallback rungs.
  const ReachServerStats stats = server.value()->Snapshot();
  EXPECT_EQ(stats.merged.queries,
            int64_t{kClients} * kBatchesPerClient * kBatchSize);
  EXPECT_EQ(stats.merged.Decided(ReachStage::kPrunedBfs), 0);
}

// The dynamic rebuild pipeline with a chain-backend rebuilder: the
// IndexRebuilder periodically produces a kChain ReachCore that the
// dynamic service adopts as its frozen snapshot, with the harness
// differentially checking every epoch boundary and adoption.
TEST(ScaleBackendTest, DynamicRebuildPipelineOnChainBackend) {
  GeneratorParams base_params;
  base_params.num_nodes = 120;
  base_params.avg_out_degree = 3;
  base_params.locality = 30;
  base_params.seed = 61;
  const ArcList base = GenerateCyclicDigraph(base_params, 12);

  DynamicTraceOptions options;
  options.service.index.backend = ReachBackend::kChain;
  options.rebuild_every = 32;
  DynamicTraceHarness harness(base, base_params.num_nodes, options);

  Rng rng(97);
  for (int op = 0; op < 256; ++op) {
    const Status status =
        harness.RandomOp(&rng, /*insert_share=*/0.4, /*delete_share=*/0.2);
    ASSERT_TRUE(status.ok()) << "op " << op << ": " << status.ToString();
  }
  const Status final_round = harness.RebuildAndAdopt();
  ASSERT_TRUE(final_round.ok()) << final_round.ToString();
  EXPECT_GT(harness.mutations(), 0);
  EXPECT_GT(harness.epochs_verified(), 0);
  EXPECT_GT(harness.adoptions_verified(), 0);
  // The adopted snapshot really is a chain core.
  EXPECT_EQ(harness.service()->snapshot().backend, ReachBackend::kChain);
}

}  // namespace
}  // namespace tcdb

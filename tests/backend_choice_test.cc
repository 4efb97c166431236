// The default backend choice (ReachBackend::kAuto): ReachCore::Build keeps
// the chain labels when their frontier fits within twice the bytes of the
// label core they replace, and builds the label core otherwise. Pinned
// here: the choice on every catalog family, all-pairs answers equal to the
// reference on each (and on cyclic inputs), the exact byte boundary of the
// rule, the recorded figures, and that the image never carries kAuto.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "graph/algorithms.h"
#include "graph/generator.h"
#include "reach/reach_service.h"
#include "util/codec.h"

namespace tcdb {
namespace {

std::shared_ptr<const ReachCore> BuildOrDie(
    const ArcList& arcs, NodeId num_nodes,
    const ReachIndexOptions& options = {}) {
  auto built = ReachCore::Build(arcs, num_nodes, options);
  TCDB_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every ordered pair of `num_nodes` checked against the reference closure
// of the input graph (reflexive): ReachCore::Decide answers what its
// labels decide, and the pairs it leaves undecided go through the
// service's search, one QueryBatch per source.
void ExpectAllPairsMatchReference(const ArcList& arcs, NodeId num_nodes,
                                  std::shared_ptr<const ReachCore> core) {
  const Digraph graph(num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);
  std::unique_ptr<ReachService> service = ReachService::Create(core);
  std::vector<bool> expected(static_cast<size_t>(num_nodes));
  std::vector<std::pair<NodeId, NodeId>> residue;
  for (NodeId u = 0; u < num_nodes; ++u) {
    expected.assign(expected.size(), false);
    expected[u] = true;
    for (const NodeId v : closure[u]) expected[v] = true;
    residue.clear();
    for (NodeId v = 0; v < num_nodes; ++v) {
      const ReachIndex::Verdict verdict = core->Decide(u, v);
      if (verdict == ReachIndex::Verdict::kUnknown) {
        residue.emplace_back(u, v);
        continue;
      }
      ASSERT_EQ(verdict == ReachIndex::Verdict::kYes, expected[v])
          << "u=" << u << " v=" << v;
    }
    if (residue.empty()) continue;
    ASSERT_EQ(core->backend, ReachBackend::kLabels);
    auto answers = service->QueryBatch(residue);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    for (size_t i = 0; i < residue.size(); ++i) {
      ASSERT_EQ(answers.value()[i].reachable, expected[residue[i].second])
          << "u=" << u << " v=" << residue[i].second;
    }
  }
}

// Instance 0 of each catalog family, default options: the narrow
// families G7, G8, G10, G11 and G12 get chain cores, the rest label
// cores, and every answer matches the reference either way.
class CatalogChoiceTest : public testing::TestWithParam<std::string> {};

TEST_P(CatalogChoiceTest, ChoiceAndAllPairsAnswers) {
  const std::vector<std::string> chain_families = {"G7", "G8", "G10", "G11",
                                                   "G12"};
  const GeneratorParams params = CatalogParams(FamilyByName(GetParam()), 0);
  const ArcList arcs = GenerateDag(params);
  const std::shared_ptr<const ReachCore> core =
      BuildOrDie(arcs, params.num_nodes);
  const bool want_chain =
      std::find(chain_families.begin(), chain_families.end(), GetParam()) !=
      chain_families.end();
  EXPECT_EQ(core->backend,
            want_chain ? ReachBackend::kChain : ReachBackend::kLabels)
      << core->BackendSummary();
  ExpectAllPairsMatchReference(arcs, params.num_nodes, core);
}

INSTANTIATE_TEST_SUITE_P(Catalog, CatalogChoiceTest,
                         testing::Values("G1", "G2", "G3", "G4", "G5", "G6",
                                         "G7", "G8", "G9", "G10", "G11",
                                         "G12"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Cyclic inputs go through the condensation first; the rule is applied to
// the condensation's n and m. One narrow graph (chain) and one sparse one
// (labels).
TEST(BackendChoiceTest, CyclicInputsAllPairs) {
  struct Case {
    GeneratorParams params;
    ReachBackend want;
  };
  const Case cases[] = {
      {{400, 50, 400, 3}, ReachBackend::kChain},
      {{400, 3, 40, 5}, ReachBackend::kLabels},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.params.avg_out_degree);
    const ArcList arcs = GenerateCyclicDigraph(c.params, 30);
    const std::shared_ptr<const ReachCore> core =
        BuildOrDie(arcs, c.params.num_nodes);
    ASSERT_TRUE(core->condensed());
    EXPECT_EQ(core->backend, c.want) << core->BackendSummary();
    ExpectAllPairsMatchReference(arcs, c.params.num_nodes, core);
  }
}

// LabelCoreBytes is the image of a kLabels core on an acyclic input less
// its fixed 21-byte header, plus the 32 bytes per node the decoder
// rebuilds rather than reads: the image stores no words.
TEST(BackendChoiceTest, LabelCoreBytesMatchesTheImage) {
  for (const GeneratorParams& params :
       {GeneratorParams{700, 5, 100, 4}, GeneratorParams{300, 20, 30, 2},
        GeneratorParams{50, 1, 5, 3}}) {
    SCOPED_TRACE(params.avg_out_degree);
    const ArcList arcs = GenerateDag(params);
    ReachIndexOptions options;
    options.backend = ReachBackend::kLabels;
    const std::shared_ptr<const ReachCore> core =
        BuildOrDie(arcs, params.num_nodes, options);
    ASSERT_FALSE(core->condensed());
    std::string image;
    core->SerializeAppend(&image);
    const int64_t n = core->dag.NumNodes();
    EXPECT_EQ(static_cast<int64_t>(image.size()) - 21 + 32 * n,
              LabelCoreBytes(n, core->dag.NumArcs()));
  }
}

// 39 isolated nodes open 39 chains; the frontier holds 1 + 2 + ... + 39 =
// 780 slots = 3120 bytes, exactly 2 * LabelCoreBytes(39, 0) = 2 * 40 * 39.
// At the budget the chain core is kept; a cap one byte lower
// (options.chain, which kAuto also honours) gives the label core, and so
// does one more node (820 slots = 3280 bytes against a budget of 3200).
TEST(BackendChoiceTest, BudgetBoundaryIsExact) {
  ReachIndexOptions options;
  ASSERT_EQ(kAutoChainBudgetFactor * LabelCoreBytes(39, 0), 3120);

  const std::shared_ptr<const ReachCore> at_budget =
      BuildOrDie({}, 39, options);
  EXPECT_EQ(at_budget->backend, ReachBackend::kChain);
  EXPECT_EQ(at_budget->chain_bytes, 3120);
  EXPECT_EQ(at_budget->chain_budget_bytes, 3120);
  EXPECT_EQ(at_budget->chain.FrontierBytes(), 3120);

  options.chain.max_label_bytes = 3120;
  EXPECT_EQ(BuildOrDie({}, 39, options)->backend, ReachBackend::kChain);
  options.chain.max_label_bytes = 3119;
  const std::shared_ptr<const ReachCore> below = BuildOrDie({}, 39, options);
  EXPECT_EQ(below->backend, ReachBackend::kLabels);
  EXPECT_EQ(below->chain_budget_bytes, 3119);
  EXPECT_EQ(below->chain_stop_rank, 38);  // the last node crosses it
  EXPECT_EQ(below->chain_bytes, 3120);

  options.chain.max_label_bytes = 0;
  EXPECT_EQ(BuildOrDie({}, 40, options)->backend, ReachBackend::kLabels);
}

// The recorded figures, for each way a core can come about.
TEST(BackendChoiceTest, CoreRecordsTheChoice) {
  const GeneratorParams narrow = CatalogParams(FamilyByName("G12"), 0);
  const ArcList narrow_arcs = GenerateDag(narrow);
  const std::shared_ptr<const ReachCore> chain =
      BuildOrDie(narrow_arcs, narrow.num_nodes);
  ASSERT_EQ(chain->backend, ReachBackend::kChain);
  EXPECT_EQ(chain->chain_count, chain->chain.num_chains());
  EXPECT_EQ(chain->chain_stop_rank, -1);
  EXPECT_EQ(chain->chain_bytes, chain->chain.FrontierBytes());
  EXPECT_EQ(chain->chain_budget_bytes,
            kAutoChainBudgetFactor *
                LabelCoreBytes(chain->dag.NumNodes(), chain->dag.NumArcs()));
  EXPECT_LE(chain->chain_bytes, chain->chain_budget_bytes);

  const GeneratorParams sparse = CatalogParams(FamilyByName("G5"), 0);
  const ArcList sparse_arcs = GenerateDag(sparse);
  const std::shared_ptr<const ReachCore> refused =
      BuildOrDie(sparse_arcs, sparse.num_nodes);
  ASSERT_EQ(refused->backend, ReachBackend::kLabels);
  EXPECT_GE(refused->chain_stop_rank, 0);
  // The bound crosses the budget long before the matrix is filled.
  EXPECT_LT(refused->chain_stop_rank, sparse.num_nodes / 4);
  EXPECT_GT(refused->chain_bytes, refused->chain_budget_bytes);
  EXPECT_GT(refused->chain_count, 0);
  EXPECT_NE(refused->BackendSummary().find("refused"), std::string::npos);

  ReachIndexOptions labels;
  labels.backend = ReachBackend::kLabels;
  const std::shared_ptr<const ReachCore> pinned_labels =
      BuildOrDie(narrow_arcs, narrow.num_nodes, labels);
  EXPECT_EQ(pinned_labels->backend, ReachBackend::kLabels);
  EXPECT_EQ(pinned_labels->chain_budget_bytes, 0);

  ReachIndexOptions pinned;
  pinned.backend = ReachBackend::kChain;
  const std::shared_ptr<const ReachCore> pinned_chain =
      BuildOrDie(sparse_arcs, sparse.num_nodes, pinned);
  EXPECT_EQ(pinned_chain->backend, ReachBackend::kChain);
  EXPECT_EQ(pinned_chain->chain_budget_bytes,
            ChainLabelBudget({}, pinned_chain->dag.NumNodes()));

  // A kChain pin over its budget fails instead of falling back.
  pinned.chain.max_label_bytes = 1024;
  EXPECT_EQ(
      ReachCore::Build(sparse_arcs, sparse.num_nodes, pinned).status().code(),
      StatusCode::kResourceExhausted);
}

// The image carries the chosen tag (0 or 1), and a backend byte of 2 —
// kAuto's value — is rejected as corruption rather than restored.
TEST(BackendChoiceTest, ImageNeverCarriesAuto) {
  const GeneratorParams params = CatalogParams(FamilyByName("G12"), 0);
  const ArcList arcs = GenerateDag(params);
  const std::shared_ptr<const ReachCore> core =
      BuildOrDie(arcs, params.num_nodes);
  std::string image;
  core->SerializeAppend(&image);
  // Layout: the layout tag (u32), num_input_nodes (i32), then the
  // backend byte.
  ASSERT_GT(image.size(), 9u);
  EXPECT_EQ(static_cast<uint8_t>(image[8]),
            static_cast<uint8_t>(ReachBackend::kChain));

  codec::Reader reader(image.data(), image.size());
  auto restored = ReachCore::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->backend, ReachBackend::kChain);
  EXPECT_EQ(restored.value()->chain_count, core->chain_count);
  EXPECT_EQ(restored.value()->chain_bytes, core->chain_bytes);

  std::string tampered = image;
  tampered[8] = static_cast<char>(ReachBackend::kAuto);
  codec::Reader tampered_reader(tampered.data(), tampered.size());
  EXPECT_EQ(ReachCore::Deserialize(&tampered_reader).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace tcdb

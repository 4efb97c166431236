// Incremental-tier tests (ctest label: `dynamic`): the property-based
// differential battery for per-pivot reachability trees — >= 10k mixed
// ops across three graph families (sparse DAG, denser DAG, cyclic with
// SCC merges and splits), answers checked against the reference closure
// at EVERY epoch boundary and after every snapshot adoption via the
// dynamic_trace.h fixture — plus named adversarial delete regressions
// (pivot-subtree disconnection, last arc into a supportive vertex, SCC
// split), rescue-path repairs, the rebuild-advise policy, and tier
// on/off answer parity. check.sh re-runs the randomized sweeps 50-seed
// under ASan/UBSan through `tcdb_cli mutate-stress`.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/incremental.h"
#include "dynamic/mutation_log.h"
#include "dynamic_trace.h"
#include "graph/generator.h"
#include "util/random.h"

namespace tcdb {
namespace {

// --- The differential battery -------------------------------------------

struct Family {
  const char* name;
  NodeId num_nodes;
  int32_t avg_out_degree;
  int32_t locality;
  int32_t num_back_arcs;  // > 0: cyclic, deletes split SCCs
  int32_t ops;
};

// num_pivots = 0 serves without pivot trees: every query past the
// snapshot epoch runs an unpruned live BFS.
void RunFamilyTrace(const Family& family, uint64_t seed,
                    int32_t num_pivots = IncrementalOptions{}.num_pivots) {
  GeneratorParams params;
  params.num_nodes = family.num_nodes;
  params.avg_out_degree = family.avg_out_degree;
  params.locality = family.locality;
  params.seed = seed;
  const ArcList base =
      family.num_back_arcs > 0
          ? GenerateCyclicDigraph(params, family.num_back_arcs)
          : GenerateDag(params);

  DynamicTraceOptions options;
  options.service.incremental_options.num_pivots = num_pivots;
  options.seed = seed ^ 0x7ace;
  DynamicTraceHarness harness(base, family.num_nodes, options);

  // Heavier delete share than the generic stress mix: deletes are where
  // the subtree repair (and, with back arcs, SCC splits) live.
  Rng rng(seed);
  for (int32_t op = 0; op < family.ops; ++op) {
    const Status status = harness.RandomOp(&rng, 0.35, 0.30);
    ASSERT_TRUE(status.ok()) << family.name << " seed " << seed << " op "
                             << op << ": " << status.ToString();
  }
  ASSERT_TRUE(harness.VerifyEpoch().ok());

  // The fixture must have verified every epoch boundary the trace
  // minted, and every adoption its rebuild cadence performed.
  EXPECT_EQ(harness.log()->current_epoch(), harness.mutations());
  EXPECT_GE(harness.epochs_verified(), harness.mutations());
  EXPECT_GT(harness.mutations(), family.ops / 3);
  // Every served query is attributed to exactly one rule.
  const ReachStats& serving = harness.service()->serving_stats();
  int64_t attributed = 0;
  for (int r = 0; r < kNumReachRules; ++r) {
    attributed += serving.rule_decided[r];
  }
  EXPECT_EQ(attributed, serving.queries);
  EXPECT_EQ(serving.queries, harness.service()->stats().queries);
  EXPECT_EQ(serving.RuleDecided(ReachRule::kLiveBfs),
            harness.service()->stats().escalations);
  const IncrementalStats& stats = harness.service()->incremental().stats();
  if (num_pivots > 0) {
    EXPECT_EQ(stats.inserts_applied + stats.deletes_applied,
              harness.mutations());
    // The tier must have actually decided queries, not just idled while
    // the live BFS answered everything.
    EXPECT_GT(harness.service()->stats().incremental_served, 0);
    EXPECT_GT(stats.repairs(), 0);
  } else {
    EXPECT_TRUE(harness.service()->incremental().pivots().empty());
    EXPECT_EQ(harness.service()->stats().incremental_served, 0);
    EXPECT_EQ(stats.repairs(), 0);
  }
}

TEST(IncrementalDifferentialTest, TenThousandMixedOpsAcrossFamilies) {
  // >= 10k ops total; the small family is verified ALL-PAIRS at every
  // epoch boundary, the larger ones by seeded samples.
  const Family families[] = {
      {"sparse-dag", 24, 2, 10, 0, 3600},
      {"denser-dag", 120, 5, 50, 0, 3600},
      {"cyclic-scc", 80, 3, 30, 14, 3600},
  };
  for (const Family& family : families) {
    RunFamilyTrace(family, /*seed=*/1);
  }
}

TEST(IncrementalDifferentialTest, CyclicFamilyExtraSeeds) {
  // The cyclic family is where SCC merges (back-arc insert) and splits
  // (cycle-arc delete) churn every pivot tree at once; sweep more seeds.
  const Family family = {"cyclic-scc", 48, 3, 20, 10, 800};
  for (uint64_t seed = 2; seed < 6; ++seed) {
    RunFamilyTrace(family, seed);
  }
}

TEST(IncrementalParityTest, TierOnAndOffAgreeOnRandomTraces) {
  // Identical traces replayed without pivot trees must still match the
  // reference everywhere (RunFamilyTrace checks every answer), only the
  // serving-rule mix may differ.
  const Family family = {"cyclic-scc", 32, 3, 15, 8, 700};
  RunFamilyTrace(family, /*seed=*/7);
  RunFamilyTrace(family, /*seed=*/7, /*num_pivots=*/0);
}

// --- Named adversarial deletes ------------------------------------------

IncrementalOptions PinnedPivots(std::vector<NodeId> pivots) {
  IncrementalOptions options;
  options.pinned_pivots = std::move(pivots);
  return options;
}

// An index over a private adjacency. Insert/Delete apply the arc to the
// adjacency first, as the MutationLog does, then run the repair hook.
struct TreeFixture {
  TreeFixture(const ArcList& arcs, NodeId n, const IncrementalOptions& options)
      : adj(n) {
    for (const Arc& arc : arcs) adj.Insert(arc.src, arc.dst);
    index = IncrementalIndex::Build(adj, options);
  }
  void Insert(NodeId src, NodeId dst) {
    adj.Insert(src, dst);
    index->OnInsert(src, dst);
  }
  void Delete(NodeId src, NodeId dst) {
    adj.Delete(src, dst);
    index->OnDelete(src, dst);
  }

  LiveAdjacency adj;
  std::unique_ptr<IncrementalIndex> index;
};

TEST(IncrementalAdversarialTest, DeleteDisconnectsPivotTreeRoot) {
  // Deleting the root's only out-arc disconnects the pivot's ENTIRE
  // forward subtree — the worst-case affected set.
  const ArcList arcs = {{0, 1}, {1, 2}, {1, 3}, {2, 4}};
  TreeFixture fixture(arcs, 5, PinnedPivots({0}));
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  ASSERT_EQ(index->pivots(), std::vector<NodeId>({0}));
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(index->InForwardTree(0, v));

  fixture.Delete(0, 1);
  EXPECT_TRUE(index->InForwardTree(0, 0));  // the root itself survives
  for (NodeId v = 1; v < 5; ++v) EXPECT_FALSE(index->InForwardTree(0, v));
  EXPECT_EQ(index->stats().nodes_detached, 4);
  EXPECT_GE(index->stats().subtree_repairs, 1);
  // The shrunken tree still decides exactly (pivot endpoint rule).
  EXPECT_EQ(index->Decide(0, 4), ReachIndex::Verdict::kNo);
  EXPECT_EQ(index->Decide(0, 0), ReachIndex::Verdict::kYes);

  // Reinserting restores the full certificate by tree extension.
  fixture.Insert(0, 1);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(index->InForwardTree(0, v));
  EXPECT_EQ(index->stats().nodes_attached, 4);
  EXPECT_EQ(index->Decide(0, 4), ReachIndex::Verdict::kYes);
}

TEST(IncrementalAdversarialTest, DeleteLastArcIntoSupportiveVertex) {
  // The supportive vertex 3 has exactly one in-arc; deleting it empties
  // the backward tree down to the pivot itself.
  const ArcList arcs = {{0, 1}, {1, 3}, {3, 4}};
  TreeFixture fixture(arcs, 5, PinnedPivots({3}));
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  EXPECT_TRUE(index->InBackwardTree(0, 0));
  EXPECT_TRUE(index->InBackwardTree(0, 1));

  fixture.Delete(1, 3);
  EXPECT_TRUE(index->InBackwardTree(0, 3));
  EXPECT_FALSE(index->InBackwardTree(0, 0));
  EXPECT_FALSE(index->InBackwardTree(0, 1));
  // Forward side is untouched: 3 -> 4 still stands.
  EXPECT_TRUE(index->InForwardTree(0, 4));
  // Decide stays exact through the collapse (endpoint-is-pivot rules).
  EXPECT_EQ(index->Decide(0, 3), ReachIndex::Verdict::kNo);
  EXPECT_EQ(index->Decide(3, 4), ReachIndex::Verdict::kYes);
  EXPECT_EQ(index->Decide(0, 1), ReachIndex::Verdict::kUnknown);
}

TEST(IncrementalAdversarialTest, DeleteSplitsScc) {
  // 0 -> 1 -> 2 -> 0 is one SCC with entry 3 -> 0 and exit 2 -> 4;
  // deleting (2, 0) splits it and every membership set must shrink to
  // the post-split truth.
  const ArcList arcs = {{0, 1}, {1, 2}, {2, 0}, {3, 0}, {2, 4}};
  TreeFixture fixture(arcs, 5, PinnedPivots({1}));
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  EXPECT_TRUE(index->InForwardTree(0, 0));   // 1 -> 2 -> 0
  EXPECT_TRUE(index->InBackwardTree(0, 2));  // 2 -> 0 -> 1

  fixture.Delete(2, 0);
  EXPECT_FALSE(index->InForwardTree(0, 0));  // fwd(1) = {1, 2, 4}
  EXPECT_TRUE(index->InForwardTree(0, 2));
  EXPECT_TRUE(index->InForwardTree(0, 4));
  EXPECT_FALSE(index->InBackwardTree(0, 2));  // bwd(1) = {0, 1, 3}
  EXPECT_TRUE(index->InBackwardTree(0, 0));
  EXPECT_TRUE(index->InBackwardTree(0, 3));
  EXPECT_EQ(index->Decide(1, 0), ReachIndex::Verdict::kNo);
  EXPECT_EQ(index->Decide(3, 4), ReachIndex::Verdict::kYes);  // 3->0->1->2->4

  // Re-closing the cycle elsewhere merges the SCC back.
  fixture.Insert(4, 0);
  EXPECT_EQ(index->Decide(1, 0), ReachIndex::Verdict::kYes);
  EXPECT_TRUE(index->InBackwardTree(0, 2));
}

TEST(IncrementalAdversarialTest, TreeArcDeleteRescuesThroughAlternateAnchor) {
  // 2 is reachable both via 1 and via 3: deleting whichever arc the tree
  // certificate chose must rescue 2 through the surviving anchor, not
  // drop it.
  const ArcList arcs = {{0, 1}, {1, 2}, {0, 3}, {3, 2}, {2, 4}};
  TreeFixture fixture(arcs, 5, PinnedPivots({0}));
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  fixture.Delete(1, 2);
  fixture.Delete(3, 2);  // second delete kills whichever path remained
  EXPECT_FALSE(index->InForwardTree(0, 2));
  EXPECT_FALSE(index->InForwardTree(0, 4));
  EXPECT_TRUE(index->InForwardTree(0, 1));
  EXPECT_TRUE(index->InForwardTree(0, 3));
  // Exactly one of the two deletes was a tree arc with a rescue; the
  // other either repaired nothing (non-tree) or detached {2, 4}.
  EXPECT_EQ(index->stats().nodes_detached, 2);
}

// --- Rebuild-advise policy ----------------------------------------------

TEST(IncrementalRebuildPolicyTest, RepairCostAdvisesRebuildAndAdoptionResets) {
  // A long chain makes every (0, 1) delete/insert pair repair the whole
  // pivot subtree, so the arc-scan budget trips quickly.
  ArcList arcs;
  const NodeId n = 32;
  for (NodeId v = 0; v + 1 < n; ++v) arcs.push_back({v, v + 1});
  IncrementalOptions options = PinnedPivots({0});
  // Budget of several repair rounds: each delete+insert pair scans on
  // the order of 2 * n arcs, so ratio 8 (budget ~8 * (n + m) ~ 500 arc
  // scans) trips after a handful of rounds, not the first one.
  options.rebuild_cost_ratio = 8.0;
  TreeFixture fixture(arcs, n, options);
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  EXPECT_FALSE(index->rebuild_advised());
  int rounds = 0;
  while (!index->rebuild_advised()) {
    fixture.Delete(0, 1);
    fixture.Insert(0, 1);
    ASSERT_LT(++rounds, 1000) << "never advised";
  }
  EXPECT_GE(rounds, 2);  // guarantees one round alone is under budget
  EXPECT_EQ(index->stats().rebuilds_advised, 1);

  index->OnSnapshotAdopted();
  EXPECT_FALSE(index->rebuild_advised());
  // The accumulator reset too: one more repair round must not re-trip
  // the budget instantly.
  fixture.Delete(0, 1);
  fixture.Insert(0, 1);
  EXPECT_FALSE(index->rebuild_advised());
}

TEST(IncrementalRebuildPolicyTest, NonPositiveRatioNeverAdvises) {
  ArcList arcs;
  const NodeId n = 16;
  for (NodeId v = 0; v + 1 < n; ++v) arcs.push_back({v, v + 1});
  IncrementalOptions options = PinnedPivots({0});
  options.rebuild_cost_ratio = 0.0;
  TreeFixture fixture(arcs, n, options);
  const std::unique_ptr<IncrementalIndex>& index = fixture.index;
  for (int round = 0; round < 64; ++round) {
    fixture.Delete(0, 1);
    fixture.Insert(0, 1);
  }
  EXPECT_FALSE(index->rebuild_advised());
  EXPECT_EQ(index->stats().rebuilds_advised, 0);
}

// --- Service-level ladder integration -----------------------------------

TEST(IncrementalLadderTest, DirtyOverlayQueriesServeFromIncrementalTier) {
  auto log_result = MutationLog::Open({{0, 1}, {1, 2}}, 4);
  ASSERT_TRUE(log_result.ok());
  DynamicReachOptions options;
  options.incremental_options.pinned_pivots = {1};
  auto service_result =
      DynamicReachService::Create(log_result.value().get(), options);
  ASSERT_TRUE(service_result.ok());
  DynamicReachService* service = service_result.value().get();

  // At the snapshot epoch the snapshot tier answers.
  auto answer = service->Query(0, 2);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(service->stats().snapshot_served, 1);
  EXPECT_EQ(service->stats().incremental_served, 0);

  // Past it, the O(k) decide intercepts before the live BFS — YES
  // through the pivot (0 -> 1 -> 2), NO out of its forward cone, and
  // the freshly inserted arc is already in the repaired tree.
  ASSERT_TRUE(service->InsertArc(2, 3).ok());
  answer = service->Query(0, 2);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().reachable);
  EXPECT_EQ(answer.value().rule, ReachRule::kIncremental);
  answer = service->Query(1, 3);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer.value().reachable);
  EXPECT_EQ(answer.value().rule, ReachRule::kIncremental);
  answer = service->Query(2, 0);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().reachable);
  EXPECT_EQ(answer.value().rule, ReachRule::kIncremental);
  EXPECT_EQ(service->stats().incremental_served, 3);
  EXPECT_EQ(service->stats().escalations, 0);
}

TEST(TraceFixtureTest, VerifiesEveryEpochBoundaryAndAdoption) {
  DynamicTraceOptions options;
  options.rebuild_every = 2;
  DynamicTraceHarness harness({{0, 1}}, 8, options);
  ASSERT_TRUE(harness.Insert(1, 2).ok());
  ASSERT_TRUE(harness.Insert(2, 3).ok());  // hits the rebuild cadence
  ASSERT_TRUE(harness.Delete(0, 1).ok());
  ASSERT_TRUE(harness.Insert(3, 4).ok());  // hits it again
  EXPECT_EQ(harness.mutations(), 4);
  EXPECT_EQ(harness.adoptions_verified(), 2);
  // Every mutation boundary checked, plus one extra check per adoption.
  EXPECT_EQ(harness.epochs_verified(), 6);
  EXPECT_EQ(harness.service()->stats().snapshots_adopted, 2);
}

}  // namespace
}  // namespace tcdb

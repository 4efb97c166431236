// Dynamic-update tests (ctest label: `dynamic`): MutationLog epochs and
// its live adjacency, the DynamicReachService serving ladder (snapshot /
// incremental / live BFS), snapshot adoption, and the randomized
// differential sweep — >= 10k mixed insert/delete/query ops across the
// generator's graph families, every answer checked bit-for-bit against a
// reference closure at that epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/mutation_stress.h"
#include "dynamic/reference_graph.h"
#include "graph/algorithms.h"
#include "graph/generator.h"

namespace tcdb {
namespace {

std::unique_ptr<MutationLog> MustOpen(const ArcList& arcs, NodeId n) {
  auto log = MutationLog::Open(arcs, n);
  TCDB_CHECK(log.ok()) << log.status().ToString();
  return std::move(log.value());
}

std::unique_ptr<DynamicReachService> MustCreate(
    MutationLog* log, const DynamicReachOptions& options = {}) {
  auto service = DynamicReachService::Create(log, options);
  TCDB_CHECK(service.ok()) << service.status().ToString();
  return std::move(service.value());
}

bool MustQuery(DynamicReachService* service, NodeId u, NodeId v,
               ReachRule* rule = nullptr) {
  auto answer = service->Query(u, v);
  TCDB_CHECK(answer.ok()) << answer.status().ToString();
  if (rule != nullptr) *rule = answer.value().rule;
  return answer.value().reachable;
}

// Several rule-expectation tests below pin the ladder without pivot
// trees (snapshot / live BFS) — with them, the O(k) decide would
// intercept these queries first. Answer correctness with the trees is
// covered by the differential sweeps in incremental_reach_test.cc and
// below.
DynamicReachOptions NoPivotTrees() {
  DynamicReachOptions options;
  options.incremental_options.num_pivots = 0;
  return options;
}

std::vector<NodeId> Sorted(std::vector<NodeId> row) {
  std::sort(row.begin(), row.end());
  return row;
}

// --- Mutation netting ---------------------------------------------------

TEST(DeltaOverlayTest, InsertThenDeleteCancelsToEmpty) {
  auto log = MustOpen({}, 3);
  auto service = MustCreate(log.get(), NoPivotTrees());
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ASSERT_TRUE(service->DeleteArc(1, 2).ok());
  EXPECT_TRUE(log->adjacency().Out(1).empty());
  EXPECT_TRUE(log->adjacency().In(2).empty());
  EXPECT_EQ(log->adjacency().num_arcs(), 0);
  // The epoch moved past the snapshot, so the live graph answers.
  ReachRule rule;
  EXPECT_FALSE(MustQuery(service.get(), 1, 2, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
}

TEST(DeltaOverlayTest, DeleteThenInsertCancelsTombstone) {
  auto log = MustOpen({{3, 4}}, 5);
  auto service = MustCreate(log.get(), NoPivotTrees());
  ASSERT_TRUE(service->DeleteArc(3, 4).ok());
  EXPECT_FALSE(MustQuery(service.get(), 3, 4));
  ASSERT_TRUE(service->InsertArc(3, 4).ok());
  EXPECT_EQ(log->adjacency().Out(3), std::vector<NodeId>{4});
  EXPECT_EQ(log->adjacency().In(4), std::vector<NodeId>{3});
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 3, 4, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
}

TEST(DeltaOverlayTest, AdjacencyAndEnumeration) {
  auto log = MustOpen({{9, 8}}, 10);
  ASSERT_TRUE(log->InsertArc(1, 2).ok());
  ASSERT_TRUE(log->InsertArc(1, 5).ok());
  ASSERT_TRUE(log->InsertArc(7, 2).ok());
  ASSERT_TRUE(log->DeleteArc(9, 8).ok());
  const LiveAdjacency& adj = log->adjacency();
  EXPECT_EQ(Sorted(adj.Out(1)), (std::vector<NodeId>{2, 5}));
  EXPECT_TRUE(adj.Out(2).empty());
  EXPECT_EQ(Sorted(adj.In(2)), (std::vector<NodeId>{1, 7}));
  EXPECT_TRUE(adj.Out(9).empty());
  EXPECT_TRUE(adj.In(8).empty());
  EXPECT_EQ(adj.num_arcs(), 3);
  EXPECT_EQ(log->num_live_arcs(), 3);
}

// --- MutationLog --------------------------------------------------------

TEST(MutationLogTest, OpenDedupesAndMirrors) {
  const ArcList base = {{0, 1}, {1, 2}, {0, 1}};  // duplicate collapses
  auto log = MutationLog::Open(base, 3);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log.value()->num_live_arcs(), 2);
  EXPECT_EQ(log.value()->current_epoch(), 0);
  EXPECT_TRUE(log.value()->HasArc(0, 1));
  EXPECT_FALSE(log.value()->HasArc(1, 0));
  EXPECT_EQ(log.value()->adjacency().Out(0), std::vector<NodeId>{1});
  EXPECT_EQ(log.value()->adjacency().num_arcs(), 2);
}

TEST(MutationLogTest, MutationStatusesAndEpochs) {
  auto log = MutationLog::Open({{0, 1}}, 4);
  ASSERT_TRUE(log.ok());
  MutationLog* m = log.value().get();
  // Validation: range, self-loops, double insert, missing delete.
  EXPECT_EQ(m->InsertArc(0, 9).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m->InsertArc(2, 2).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m->InsertArc(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(m->DeleteArc(1, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(m->current_epoch(), 0);  // rejected mutations mint no epoch

  auto e1 = m->InsertArc(1, 2);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value(), 1);
  auto e2 = m->DeleteArc(0, 1);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value(), 2);
  EXPECT_EQ(m->current_epoch(), 2);
  EXPECT_EQ(m->num_live_arcs(), 1);

  const MutationLog::ArcSnapshot snap = m->SnapshotArcs();
  EXPECT_EQ(snap.epoch, 2);
  ASSERT_EQ(snap.arcs.size(), 1u);
  EXPECT_EQ(snap.arcs[0].src, 1);
  EXPECT_EQ(snap.arcs[0].dst, 2);

  // The live adjacency tracked both mutations.
  EXPECT_TRUE(m->adjacency().Out(0).empty());
  EXPECT_EQ(m->adjacency().Out(1), std::vector<NodeId>{2});
  EXPECT_EQ(m->adjacency().In(2), std::vector<NodeId>{1});
}

// A snapshot taken between an insert and the delete of the same arc
// contains the arc; the answer must follow the log suffix past that
// snapshot, not the (empty) net difference from the base graph.
TEST(MutationLogTest, RebaseReplaysSuffixNotNetDifference) {
  auto log = MustOpen({}, 4);
  auto service = MustCreate(log.get(), NoPivotTrees());
  IndexRebuilder rebuilder(
      log.get(),
      [&](std::shared_ptr<const ReachCore> core, MutationLog::Epoch epoch,
          double seconds) {
        service->PublishSnapshot(std::move(core), epoch, seconds);
      });
  ASSERT_TRUE(service->InsertArc(0, 1).ok());  // epoch 1
  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  ASSERT_TRUE(service->AdoptPublishedSnapshot());
  EXPECT_EQ(service->snapshot_epoch(), 1);
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 1, &rule));
  EXPECT_NE(rule, ReachRule::kLiveBfs);  // the snapshot is current

  ASSERT_TRUE(service->DeleteArc(0, 1).ok());  // epoch 2
  EXPECT_FALSE(MustQuery(service.get(), 0, 1, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);

  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  ASSERT_TRUE(service->AdoptPublishedSnapshot());
  EXPECT_EQ(service->snapshot_epoch(), 2);
  EXPECT_FALSE(MustQuery(service.get(), 0, 1, &rule));
  EXPECT_NE(rule, ReachRule::kLiveBfs);
}

// --- DynamicReachService ------------------------------------------------

TEST(DynamicReachServiceTest, EmptyOverlayServesFromSnapshot) {
  auto log = MustOpen({{0, 1}, {1, 2}}, 4);
  auto service = MustCreate(log.get());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  EXPECT_FALSE(MustQuery(service.get(), 2, 0));
  EXPECT_FALSE(MustQuery(service.get(), 0, 3));
  EXPECT_EQ(service->stats().snapshot_served, 3);
  EXPECT_EQ(service->stats().escalations, 0);
}

TEST(DynamicReachServiceTest, InsertIsVisibleImmediatelyViaOverlay) {
  auto log = MustOpen({{0, 1}, {2, 3}}, 4);
  auto service = MustCreate(log.get(), NoPivotTrees());
  EXPECT_FALSE(MustQuery(service.get(), 0, 3));
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 3, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_FALSE(MustQuery(service.get(), 3, 0, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_EQ(service->stats().escalations, 2);
}

TEST(DynamicReachServiceTest, DeleteEscalatesAndAnswersCorrectly) {
  auto log = MustOpen({{0, 1}, {1, 2}, {3, 2}}, 4);
  auto service = MustCreate(log.get(), NoPivotTrees());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  ASSERT_TRUE(service->DeleteArc(1, 2).ok());
  ReachRule rule;
  EXPECT_FALSE(MustQuery(service.get(), 0, 2, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_TRUE(MustQuery(service.get(), 0, 1));
  EXPECT_TRUE(MustQuery(service.get(), 3, 2));
  EXPECT_GE(service->stats().escalations, 1);
}

TEST(DynamicReachServiceTest, DeletionOutsideConeStaysPatched) {
  // Two disjoint chains; deleting in one leaves the other's queries on
  // the incremental tier: the pivot's trees are repaired in place and
  // decide exactly, with no search.
  auto log = MustOpen({{0, 1}, {2, 3}}, 4);
  DynamicReachOptions options;
  options.incremental_options.pinned_pivots = {0};
  auto service = MustCreate(log.get(), options);
  ASSERT_TRUE(service->DeleteArc(2, 3).ok());
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 1, &rule));
  EXPECT_EQ(rule, ReachRule::kIncremental);
  EXPECT_FALSE(MustQuery(service.get(), 2, 3));
  EXPECT_EQ(service->stats().incremental_served +
                service->stats().escalations,
            2);
}

TEST(DynamicReachServiceTest, ZeroBudgetEscalatesNonEmptyOverlay) {
  // Without pivot trees every query past the snapshot epoch is searched
  // on the live graph.
  DynamicReachOptions options = NoPivotTrees();
  auto log = MustOpen({{0, 1}}, 4);
  auto service = MustCreate(log.get(), options);
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 2, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_EQ(service->stats().escalations, 1);
}

TEST(DynamicReachServiceTest, MutationInvalidatesCachedAnswer) {
  auto log = MustOpen({{0, 1}, {1, 2}}, 4);
  auto service = MustCreate(log.get());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 2, &rule));
  EXPECT_EQ(rule, ReachRule::kCacheHit);  // second hit came from the cache
  ASSERT_TRUE(service->DeleteArc(0, 1).ok());
  EXPECT_FALSE(MustQuery(service.get(), 0, 2, &rule));
  EXPECT_NE(rule, ReachRule::kCacheHit);  // the stale entry was invalidated
  ASSERT_TRUE(service->InsertArc(0, 2).ok());
  EXPECT_TRUE(MustQuery(service.get(), 0, 2));
}

TEST(DynamicReachServiceTest, AdoptingRebuiltSnapshotDrainsOverlay) {
  auto log = MustOpen({{0, 1}}, 5);
  auto service = MustCreate(log.get());
  ASSERT_TRUE(service->InsertArc(1, 2).ok());
  ASSERT_TRUE(service->InsertArc(2, 3).ok());
  ASSERT_TRUE(service->DeleteArc(0, 1).ok());
  EXPECT_NE(service->snapshot_epoch(), log->current_epoch());

  IndexRebuilder rebuilder(
      log.get(),
      [&](std::shared_ptr<const ReachCore> core, MutationLog::Epoch epoch,
          double seconds) {
        service->PublishSnapshot(std::move(core), epoch, seconds);
      });
  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  EXPECT_EQ(rebuilder.rebuilds_published(), 1);
  EXPECT_TRUE(service->AdoptPublishedSnapshot());
  EXPECT_EQ(service->snapshot_epoch(), 3);
  EXPECT_EQ(service->snapshot_epoch(), log->current_epoch());
  EXPECT_EQ(service->stats().snapshots_adopted, 1);

  // Post-adoption queries run the pure snapshot ladder and agree with the
  // live graph.
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 1, 3, &rule));
  EXPECT_NE(rule, ReachRule::kIncremental);
  EXPECT_NE(rule, ReachRule::kLiveBfs);
  EXPECT_FALSE(MustQuery(service.get(), 0, 1));
  EXPECT_GE(service->stats().snapshot_served, 2);

  // A second RebuildNow at the same epoch publishes nothing.
  ASSERT_TRUE(rebuilder.RebuildNow().ok());
  EXPECT_EQ(rebuilder.rebuilds_published(), 1);
  EXPECT_FALSE(service->AdoptPublishedSnapshot());
}

// A deletion splits a strongly connected component of the snapshot: the
// stale condensation still says 1 and 0 share a component, so the query
// must go to the live graph. The pivot trees leave (1, 0) undecided and
// prune the live BFS (node 2 is a dead end, node 5 is the pivot itself).
TEST(DynamicReachServiceTest, SplitSnapshotSccIsAnsweredByPrunedLiveBfs) {
  const ArcList arcs = {{0, 1}, {1, 2}, {2, 0}, {1, 5}, {5, 6}};
  const NodeId n = 7;
  auto log = MustOpen(arcs, n);
  DynamicReachOptions options;
  options.cache_capacity = 0;
  options.incremental_options.pinned_pivots = {5};
  auto service = MustCreate(log.get(), options);
  ReferenceGraph reference(n);
  for (const Arc& arc : arcs) reference.Insert(arc.src, arc.dst);

  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 1, 0, &rule));
  EXPECT_EQ(rule, ReachRule::kSameScc);  // one snapshot SCC

  ASSERT_TRUE(service->DeleteArc(2, 0).ok());
  reference.Delete(2, 0);
  EXPECT_EQ(service->incremental().Decide(1, 0),
            ReachIndex::Verdict::kUnknown);
  EXPECT_FALSE(MustQuery(service.get(), 1, 0, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_TRUE(MustQuery(service.get(), 0, 2, &rule));
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(MustQuery(service.get(), u, v), reference.Reaches(u, v))
          << u << " -> " << v;
    }
  }
}

// Every dynamic query is attributed to exactly one rule, and a search is
// not a label decision: the live-BFS queries of an escalating service are
// excluded from DecidedWithoutFallback. The cache counts every answer it
// stores, and the live BFS counts the nodes it queued.
TEST(DynamicReachServiceTest, ServingStatsAttributeEscalatedSearches) {
  // A path 0 -> 1 -> 2 -> 3 and no pivot trees: past the snapshot epoch
  // every uncached pair is searched on the live graph.
  auto log = MustOpen({{0, 1}, {1, 2}, {2, 3}}, 5);
  auto service = MustCreate(log.get(), NoPivotTrees());
  ReachRule rule;
  EXPECT_TRUE(MustQuery(service.get(), 0, 3, &rule));
  EXPECT_NE(rule, ReachRule::kLiveBfs);  // the snapshot is current
  ASSERT_TRUE(service->InsertArc(3, 4).ok());
  EXPECT_TRUE(MustQuery(service.get(), 0, 4, &rule));  // queues 0, 1, 2, 3
  EXPECT_EQ(rule, ReachRule::kLiveBfs);
  EXPECT_TRUE(MustQuery(service.get(), 0, 4, &rule));
  EXPECT_EQ(rule, ReachRule::kCacheHit);
  EXPECT_FALSE(MustQuery(service.get(), 4, 0, &rule));  // queues 4
  EXPECT_EQ(rule, ReachRule::kLiveBfs);

  const ReachStats& stats = service->serving_stats();
  EXPECT_EQ(stats.queries, 4);
  int64_t attributed = 0;
  for (int r = 0; r < kNumReachRules; ++r) attributed += stats.rule_decided[r];
  EXPECT_EQ(attributed, stats.queries);
  EXPECT_EQ(stats.RuleDecided(ReachRule::kLiveBfs),
            service->stats().escalations);
  EXPECT_EQ(stats.Decided(ReachStage::kLiveBfs), 2);
  EXPECT_EQ(stats.DecidedWithoutFallback(), 2);
  EXPECT_EQ(stats.cache_insertions, 3);  // every answer but the cache hit
  EXPECT_EQ(stats.bfs_expansions, 5);
}

// At the snapshot epoch the dynamic service runs the same O(1) ladder as
// ReachCore::Decide, the root words included, and searches only its
// residue.
TEST(DynamicReachServiceTest, SnapshotLadderConsultsTheBattery) {
  const GeneratorParams params{300, 5, 100, 8};
  auto log = MustOpen(GenerateDag(params), params.num_nodes);
  DynamicReachOptions options;
  options.index.backend = ReachBackend::kLabels;
  options.cache_capacity = 0;
  auto service = MustCreate(log.get(), options);
  const ReachCore& core = service->snapshot();
  ASSERT_EQ(core.backend, ReachBackend::kLabels);

  std::pair<NodeId, NodeId> observed{-1, -1};
  std::pair<NodeId, NodeId> residue{-1, -1};
  ReachRule observed_rule = ReachRule::kSelf;
  bool observed_yes = false;
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      ReachRule rule;
      const ReachIndex::Verdict verdict = core.Decide(u, v, &rule);
      if (verdict == ReachIndex::Verdict::kUnknown) {
        residue = {u, v};
      } else if (StageOf(rule) == ReachStage::kSupportivePositive ||
                 StageOf(rule) == ReachStage::kSupportiveNegative) {
        observed = {u, v};
        observed_rule = rule;
        observed_yes = verdict == ReachIndex::Verdict::kYes;
      }
    }
  }
  ASSERT_GE(observed.first, 0) << "the root words decided no pair";
  ASSERT_GE(residue.first, 0) << "the labels left no residue";

  auto answer = service->Query(observed.first, observed.second);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().reachable, observed_yes);
  EXPECT_EQ(answer.value().rule, observed_rule);
  EXPECT_EQ(answer.value().stage, StageOf(observed_rule));

  ReachRule rule;
  MustQuery(service.get(), residue.first, residue.second, &rule);
  EXPECT_EQ(rule, ReachRule::kPrunedBfs);
  EXPECT_GT(service->serving_stats().bfs_expansions, 0);
  EXPECT_EQ(service->stats().snapshot_served, 2);
}

TEST(DynamicReachServiceTest, QueryValidatesEndpoints) {
  auto log = MustOpen({{0, 1}}, 2);
  auto service = MustCreate(log.get());
  EXPECT_EQ(service->Query(0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service->Query(-1, 0).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Randomized differential sweep --------------------------------------

// The acceptance bar for the dynamic stack: randomized mixed traces
// totalling >= 10k operations across the generator grid (three node-count
// families, DAG and cyclic variants), every query answered bit-identically
// to a reference closure of the live graph at that epoch, and every final
// live successor row equal to the reference adjacency.
TEST(DynamicDifferentialTest, TenThousandMixedOpsAcrossFamilies) {
  MutationStressOptions options;
  options.num_seeds = 15;
  options.base_seed = 7;
  options.ops_per_seed = 700;
  MutationStressReport report;
  MutationStressFailure failure;
  const Status status = RunMutationStress(options, &report, &failure);
  ASSERT_TRUE(status.ok()) << failure.ToString();
  EXPECT_EQ(report.seeds, 15);
  EXPECT_GE(report.inserts + report.deletes + report.queries, 10000);
  EXPECT_GT(report.deletes, 0);
  EXPECT_GT(report.escalations, 0);
  EXPECT_GT(report.incremental_served, 0);
  EXPECT_GT(report.snapshots_adopted, 0);
}

// Regression for the epoch-skipping hole: MutationStress used to
// validate answers only at the trace's own query ops, so an epoch whose
// damage a later mutation repaired was never checked. A mutation-heavy
// trace (~5% queries) now still validates EVERY intermediate epoch by
// default, and validate_every=0 is pinned as the legacy behaviour.
TEST(DynamicDifferentialTest, EpochBoundaryValidationCoversQuietEpochs) {
  MutationStressOptions options;
  options.num_seeds = 3;
  options.base_seed = 11;
  options.ops_per_seed = 200;
  options.insert_share = 0.55;
  options.delete_share = 0.40;  // leaves ~5% query ops
  MutationStressReport report;
  MutationStressFailure failure;
  ASSERT_TRUE(RunMutationStress(options, &report, &failure).ok())
      << failure.ToString();
  EXPECT_GT(report.inserts + report.deletes, 0);
  // validate_every = 1 (the default): one boundary validation per
  // accepted mutation, query-free stretches included.
  EXPECT_EQ(report.epoch_validations, report.inserts + report.deletes);

  options.validate_every = 0;  // legacy: trace queries + final state only
  MutationStressReport legacy;
  ASSERT_TRUE(RunMutationStress(options, &legacy, &failure).ok())
      << failure.ToString();
  EXPECT_EQ(legacy.epoch_validations, 0);
  // The boundary checks ride a dedicated RNG stream, so the op traces —
  // and hence the answer digests — are identical either way.
  EXPECT_EQ(legacy.inserts, report.inserts);
  EXPECT_EQ(legacy.deletes, report.deletes);
  EXPECT_EQ(legacy.answer_digest, report.answer_digest);
}

// The tier on/off proof at unit scale (check.sh pins the 50-seed digest
// the same way, under ASan/UBSan): these traces once ran both with the
// pivot trees and with the unpruned live-BFS ladder that num_pivots = 0
// now serves, and both printed this answer digest. The trees may only
// change which rule answers, never what it answers.
TEST(DynamicDifferentialTest, IncrementalTierPreservesAnswerDigest) {
  MutationStressOptions options;
  options.num_seeds = 5;
  options.base_seed = 21;
  options.ops_per_seed = 400;
  MutationStressReport report;
  MutationStressFailure failure;
  ASSERT_TRUE(RunMutationStress(options, &report, &failure).ok())
      << failure.ToString();
  EXPECT_GT(report.incremental_served, 0);
  EXPECT_EQ(report.queries, 901);
  EXPECT_EQ(report.answer_digest, 0xe5352cbcf92d2f10ull);
}

}  // namespace
}  // namespace tcdb

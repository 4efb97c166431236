// Differential tests of the online reachability subsystem: ReachService
// answers are cross-checked against ground truth from the in-memory oracle
// closure, a TcSession SRCH run, and ComputeReduction closure sizes, over
// the paper's F x l generator grid — including the batched and warm-cache
// serving paths and every rung of the fallback ladder.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "graph/algorithms.h"
#include "graph/analyzer.h"
#include "graph/generator.h"
#include "reach/reach_service.h"
#include "util/random.h"

namespace tcdb {
namespace {

struct Family {
  int32_t avg_out_degree;  // F
  int32_t locality;        // l
};

const std::vector<Family>& Families() {
  static const std::vector<Family>& families = *new std::vector<Family>{
      {2, 20},  {2, 200},  {2, 2000},  {5, 20},  {5, 200},  {5, 2000},
      {20, 20}, {20, 200}, {20, 2000}, {50, 20}, {50, 200}, {50, 2000},
  };
  return families;
}

// Query mix for one graph: random pairs plus arc endpoints (guaranteed
// positives that stress the positive rules).
std::vector<std::pair<NodeId, NodeId>> MakeQueries(const ArcList& arcs,
                                                   NodeId num_nodes,
                                                   uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    queries.emplace_back(
        static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)),
        static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)));
  }
  for (size_t i = 0; i < arcs.size() && i < 100; ++i) {
    const size_t pick = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(arcs.size()) - 1));
    queries.emplace_back(arcs[pick].src, arcs[pick].dst);
  }
  return queries;
}

// Options that pin the label ladder, for the tests that count its stages
// and searches (the default kAuto serves these graphs from chain labels).
ReachServiceOptions LabelLadderOptions() {
  ReachServiceOptions options;
  options.index.backend = ReachBackend::kLabels;
  return options;
}

// Oracle answer: reflexive reachability over the input digraph (cycles
// included — ReferenceClosure's per-source BFS handles them).
bool OracleReaches(const std::vector<std::vector<NodeId>>& closure, NodeId u,
                   NodeId v) {
  if (u == v) return true;
  return std::binary_search(closure[u].begin(), closure[u].end(), v);
}

TEST(ReachDifferentialTest, AgreesWithOracleAcrossFamilies) {
  constexpr NodeId kNodes = 300;
  constexpr int kSeedsPerFamily = 10;
  for (const Family& family : Families()) {
    ReachStats aggregate;
    for (int seed = 1; seed <= kSeedsPerFamily; ++seed) {
      const GeneratorParams params{kNodes, family.avg_out_degree,
                                   family.locality,
                                   static_cast<uint64_t>(seed)};
      const ArcList arcs = GenerateDag(params);
      const Digraph graph(kNodes, arcs);
      const std::vector<std::vector<NodeId>> closure =
          ReferenceClosure(graph);

      auto service = ReachService::Build(arcs, kNodes, LabelLadderOptions());
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      const auto queries = MakeQueries(arcs, kNodes, 100 + seed);
      for (const auto& [u, v] : queries) {
        auto answer = service.value()->Query(u, v);
        ASSERT_TRUE(answer.ok());
        EXPECT_EQ(answer.value().reachable, OracleReaches(closure, u, v))
            << "F=" << family.avg_out_degree << " l=" << family.locality
            << " seed=" << seed << " (" << u << ", " << v << ") via "
            << ReachRuleName(answer.value().rule);
      }
      aggregate.Merge(service.value()->stats());
    }
    // Acceptance: the O(1) labels decide > 80% of queries per family
    // (the fallback is the pruned BFS).
    EXPECT_GT(aggregate.DecidedWithoutFallback(),
              (aggregate.queries * 8) / 10)
        << "F=" << family.avg_out_degree << " l=" << family.locality
        << ": " << aggregate.DecidedWithoutFallback() << " of "
        << aggregate.queries << " decided without fallback";
  }
}

TEST(ReachDifferentialTest, BatchMatchesOracleAndWarmCacheRepeats) {
  constexpr NodeId kNodes = 300;
  for (const Family& family : Families()) {
    const GeneratorParams params{kNodes, family.avg_out_degree,
                                 family.locality, 77};
    const ArcList arcs = GenerateDag(params);
    const Digraph graph(kNodes, arcs);
    const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

    auto service = ReachService::Build(arcs, kNodes, LabelLadderOptions());
    ASSERT_TRUE(service.ok());
    const auto queries = MakeQueries(arcs, kNodes, 9);
    auto batch = service.value()->QueryBatch(queries);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch.value().size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch.value()[i].reachable,
                OracleReaches(closure, queries[i].first, queries[i].second))
          << "batch query " << i;
    }
    EXPECT_EQ(service.value()->stats().batches, 1);
    const int64_t cache_hits_before =
        service.value()->stats().Decided(ReachStage::kCache);

    // Second round: answers are unchanged, and the cache serves exactly
    // the fallback-decided queries — the cache policy deliberately skips
    // O(1)-decided answers (they re-derive in nanoseconds and would only
    // evict the expensive entries), so a round-1 label answer must come
    // from the same label stage again.
    auto warm = service.value()->QueryBatch(queries);
    ASSERT_TRUE(warm.ok());
    int64_t cache_hits = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(warm.value()[i].reachable, batch.value()[i].reachable);
      const ReachStage first = batch.value()[i].stage;
      const bool was_fallback = first == ReachStage::kPrunedBfs;
      EXPECT_EQ(warm.value()[i].stage,
                was_fallback ? ReachStage::kCache : first)
          << "warm query " << i;
      if (warm.value()[i].stage == ReachStage::kCache) ++cache_hits;
    }
    EXPECT_EQ(service.value()->stats().Decided(ReachStage::kCache),
              cache_hits_before + cache_hits);
    // Per-rule attribution covers every query: the rule counters must sum
    // to the stage counters' total.
    int64_t attributed = 0;
    for (int r = 0; r < kNumReachRules; ++r) {
      attributed += service.value()->stats().rule_decided[r];
    }
    EXPECT_EQ(attributed, service.value()->stats().queries);
  }
}

TEST(ReachDifferentialTest, AgreesWithSrchSessionGroundTruth) {
  const GeneratorParams params{400, 5, 120, 31};
  const ArcList arcs = GenerateDag(params);

  TcSession::SessionOptions session_options;
  session_options.exec.capture_answer = true;
  session_options.keep_cache_warm = true;
  auto session = TcSession::Open(arcs, params.num_nodes, session_options);
  ASSERT_TRUE(session.ok());

  auto service = ReachService::Build(arcs, params.num_nodes);
  ASSERT_TRUE(service.ok());

  for (const NodeId source : SampleSourceNodes(params.num_nodes, 6, 12)) {
    auto run = session.value()->Query(Algorithm::kSrch,
                                      QuerySpec::Partial({source}));
    ASSERT_TRUE(run.ok());
    std::vector<NodeId> successors;
    for (const auto& [node, succ] : run.value().answer) {
      if (node == source) successors = succ;
    }
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      if (v == source) continue;
      const bool srch_says =
          std::binary_search(successors.begin(), successors.end(), v);
      auto answer = service.value()->Query(source, v);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer.value().reachable, srch_says)
          << "source " << source << " dst " << v;
    }
  }
}

TEST(ReachDifferentialTest, ExhaustivePairsMatchReductionClosureSize) {
  const GeneratorParams params{120, 5, 40, 3};
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  auto reduction = ComputeReduction(graph);
  ASSERT_TRUE(reduction.ok());

  auto service = ReachService::Build(arcs, params.num_nodes);
  ASSERT_TRUE(service.ok());
  int64_t positive_pairs = 0;
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      if (u == v) continue;
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok());
      if (answer.value().reachable) ++positive_pairs;
    }
  }
  EXPECT_EQ(positive_pairs, reduction.value().closure_size);
}

TEST(ReachDifferentialTest, CyclicInputsServeOnTheCondensation) {
  const GeneratorParams params{200, 4, 50, 8};
  const ArcList arcs = GenerateCyclicDigraph(params, 15);
  const Digraph graph(params.num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  auto service = ReachService::Build(arcs, params.num_nodes);
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE(service.value()->condensed());

  Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    auto answer = service.value()->Query(u, v);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer.value().reachable, OracleReaches(closure, u, v))
        << "(" << u << ", " << v << ")";
  }
  // Reflexivity holds even off-cycle.
  auto self = service.value()->Query(7, 7);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self.value().reachable);
  EXPECT_EQ(self.value().stage, ReachStage::kTrivial);
}

// Every rung configuration produces the same (correct) answers; the
// unbounded pruned BFS actually fires when the cheaper rungs are disabled.
TEST(ReachFallbackLadderTest, AllConfigurationsAgreeWithOracle) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  // No budgeted BFS, no supportive labels, no cache: the residue goes
  // straight to the unbounded pruned BFS.
  ReachServiceOptions unbounded_only = LabelLadderOptions();
  unbounded_only.bfs_budget = 0;
  unbounded_only.index.num_supportive = 0;
  unbounded_only.cache_capacity = 0;

  ReachServiceOptions tiny_budget = LabelLadderOptions();
  tiny_budget.bfs_budget = 4;  // force the budgeted pass to give up sometimes
  tiny_budget.index.num_supportive = 0;

  ReachServiceOptions defaults;

  for (const ReachServiceOptions& options :
       {unbounded_only, tiny_budget, defaults}) {
    auto service = ReachService::Build(arcs, params.num_nodes, options);
    ASSERT_TRUE(service.ok());
    const auto queries = MakeQueries(arcs, params.num_nodes, 5);
    for (const auto& [u, v] : queries) {
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer.value().reachable, OracleReaches(closure, u, v));
    }
  }

  auto unbounded_service =
      ReachService::Build(arcs, params.num_nodes, unbounded_only);
  ASSERT_TRUE(unbounded_service.ok());
  // The diamond residue: with supportive labels off, some pair needs the
  // search.
  const auto queries = MakeQueries(arcs, params.num_nodes, 5);
  auto batch = unbounded_service.value()->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(unbounded_service.value()->stats().Decided(ReachStage::kPrunedBfs),
            0);
  EXPECT_GT(unbounded_service.value()->stats().bfs_expansions, 0);
}

// Regression: cache_insertions used to count every Insert() call, even
// when the cache was disabled (capacity 0) or the call merely refreshed an
// existing entry — the counter could exceed the cache's lifetime content.
TEST(ReachServiceTest, CacheInsertionsCountOnlyStoredEntries) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);

  // Caching disabled: nothing can be stored, so nothing may be counted.
  ReachServiceOptions no_cache = LabelLadderOptions();
  no_cache.cache_capacity = 0;
  auto disabled = ReachService::Build(arcs, params.num_nodes, no_cache);
  ASSERT_TRUE(disabled.ok());
  const auto queries = MakeQueries(arcs, params.num_nodes, 5);
  for (const auto& [u, v] : queries) {
    ASSERT_TRUE(disabled.value()->Query(u, v).ok());
  }
  ASSERT_TRUE(disabled.value()->QueryBatch(queries).ok());
  EXPECT_GT(disabled.value()->stats().queries, 0);
  EXPECT_EQ(disabled.value()->stats().cache_insertions, 0);

  // A duplicated fallback pair in one batch resolves as one group; the
  // second Insert refreshes the first and must not be counted.
  ReachServiceOptions unbounded_only = LabelLadderOptions();
  unbounded_only.bfs_budget = 0;
  unbounded_only.index.num_supportive = 0;
  auto probe = ReachService::Build(arcs, params.num_nodes, unbounded_only);
  ASSERT_TRUE(probe.ok());
  std::pair<NodeId, NodeId> fallback_pair{-1, -1};
  for (const auto& [u, v] : queries) {
    auto answer = probe.value()->Query(u, v);
    ASSERT_TRUE(answer.ok());
    if (answer.value().stage == ReachStage::kPrunedBfs) {
      fallback_pair = {u, v};
      break;
    }
  }
  ASSERT_GE(fallback_pair.first, 0) << "no query needed the search rung";

  auto service = ReachService::Build(arcs, params.num_nodes, unbounded_only);
  ASSERT_TRUE(service.ok());
  const std::vector<std::pair<NodeId, NodeId>> twice = {fallback_pair,
                                                        fallback_pair};
  auto batch = service.value()->QueryBatch(twice);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(service.value()->stats().cache_insertions, 1);
}

// Regression: QueryBatch timed each pass-1 classification but threw the
// timer away for queries that fell through to the fallback pass, so their
// recorded latency missed the label work. With a tick clock (+1s per
// read), a single-fallback batch reads the clock twice in pass 1 and
// twice in pass 2: the recorded total must be 2.0s, not the 1.0s of the
// fallback interval alone.
TEST(ReachServiceTest, BatchLatencyIncludesPassOneClassification) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);

  ReachServiceOptions unbounded_only = LabelLadderOptions();
  unbounded_only.bfs_budget = 0;
  unbounded_only.index.num_supportive = 0;
  unbounded_only.cache_capacity = 0;

  auto probe = ReachService::Build(arcs, params.num_nodes, unbounded_only);
  ASSERT_TRUE(probe.ok());
  std::pair<NodeId, NodeId> fallback_pair{-1, -1};
  for (const auto& [u, v] : MakeQueries(arcs, params.num_nodes, 5)) {
    auto answer = probe.value()->Query(u, v);
    ASSERT_TRUE(answer.ok());
    if (answer.value().stage == ReachStage::kPrunedBfs) {
      fallback_pair = {u, v};
      break;
    }
  }
  ASSERT_GE(fallback_pair.first, 0) << "no query needed the search rung";

  auto service = ReachService::Build(arcs, params.num_nodes, unbounded_only);
  ASSERT_TRUE(service.ok());
  double ticks = 0.0;
  service.value()->SetClockForTesting([&ticks] { return ticks += 1.0; });

  const std::vector<std::pair<NodeId, NodeId>> one = {fallback_pair};
  auto batch = service.value()->QueryBatch(one);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value()[0].stage, ReachStage::kPrunedBfs);
  EXPECT_DOUBLE_EQ(service.value()->stats().TotalSeconds(), 2.0);
}

// The label pass reads the clock twice per batch, whatever its size: a
// reading per query would fence each query's cache misses off from the
// next one's (ReachService::LabelPass). A chain core leaves no residue,
// so the counting clock sees the label pass alone.
TEST(ReachServiceTest, LabelPassReadsTheClockTwicePerBatch) {
  const GeneratorParams params{300, 5, 30, 3};
  ReachServiceOptions options;
  options.index.backend = ReachBackend::kChain;
  auto service =
      ReachService::Build(GenerateDag(params), params.num_nodes, options);
  ASSERT_TRUE(service.ok());
  int64_t readings = 0;
  service.value()->SetClockForTesting(
      [&readings] { return static_cast<double>(++readings); });

  Rng rng(5);
  int64_t queries = 0;
  for (const size_t size : {size_t{1}, size_t{7}, size_t{256}}) {
    std::vector<std::pair<NodeId, NodeId>> batch(size);
    for (auto& [src, dst] : batch) {
      src = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
      dst = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    }
    readings = 0;
    ASSERT_TRUE(service.value()->QueryBatch(batch).ok());
    EXPECT_EQ(readings, 2) << "batch of " << size;
    queries += static_cast<int64_t>(size);
  }
  const ReachStats& stats = service.value()->stats();
  int64_t decided = 0;
  for (int r = 0; r < kNumReachRules; ++r) decided += stats.rule_decided[r];
  EXPECT_EQ(decided, queries);
  EXPECT_EQ(stats.queries, queries);
  EXPECT_EQ(stats.RuleDecided(ReachRule::kPrunedBfs), 0);
  // Each pass spans one tick, and its queries are charged all of it.
  EXPECT_NEAR(stats.TotalSeconds(), 3.0, 1e-12);
}

// One Record(seconds, count) call leaves the histogram as `count` single
// calls would: the same count, total and quantiles.
TEST(LatencyHistogramTest, BatchedRecordMatchesSingleCalls) {
  for (const double seconds : {0.0, 3e-7, 1.5e-6, 4e-3, 100.0}) {
    for (const int64_t count : {1, 7, 256}) {
      SCOPED_TRACE(std::to_string(seconds) + " s x " + std::to_string(count));
      LatencyHistogram batched;
      LatencyHistogram single;
      batched.Record(2e-6, 3);
      for (int i = 0; i < 3; ++i) single.Record(2e-6);
      batched.Record(seconds, count);
      for (int64_t i = 0; i < count; ++i) single.Record(seconds);
      EXPECT_EQ(batched.count(), single.count());
      EXPECT_NEAR(batched.total_seconds(), single.total_seconds(),
                  1e-12 * single.total_seconds());
      for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(batched.QuantileSeconds(q), single.QuantileSeconds(q))
            << "q=" << q;
      }
    }
  }
}

TEST(ReachServiceTest, ValidatesInputs) {
  const ArcList arcs = {{0, 1}, {1, 2}};
  auto service = ReachService::Build(arcs, 3);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE(service.value()->Query(-1, 0).ok());
  EXPECT_FALSE(service.value()->Query(0, 3).ok());
  const std::vector<std::pair<NodeId, NodeId>> bad = {{0, 1}, {5, 0}};
  EXPECT_FALSE(service.value()->QueryBatch(bad).ok());

  EXPECT_FALSE(ReachService::Build({{0, 9}}, 3).ok());
  EXPECT_FALSE(ReachService::Build({}, -1).ok());
}

TEST(ReachIndexTest, LabelInvariantsOnASmallDag) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (diamond), 4 isolated.
  const ArcList arcs = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  auto index = ReachIndex::Build(Digraph(5, arcs));
  ASSERT_TRUE(index.ok());
  const ReachIndex& idx = index.value();
  EXPECT_EQ(idx.num_nodes(), 5);

  ReachRule rule;
  EXPECT_EQ(idx.TryDecide(3, 0, &rule), ReachIndex::Verdict::kNo);
  EXPECT_EQ(rule, ReachRule::kTopoWindow);
  EXPECT_EQ(idx.TryDecide(0, 3, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(idx.TryDecide(0, 0, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSelf);
  // The isolated node reaches nothing and is reached by nothing.
  EXPECT_EQ(idx.TryDecide(4, 3, nullptr), ReachIndex::Verdict::kNo);
  EXPECT_EQ(idx.TryDecide(0, 4, nullptr), ReachIndex::Verdict::kNo);

  // PrunedBfs is definitive given budget, and kUnknown without one.
  ReachIndex::SearchScratch scratch;
  EXPECT_EQ(idx.PrunedBfs(Digraph(5, arcs), 2, 3, 100, &scratch),
            ReachIndex::Verdict::kYes);
  EXPECT_EQ(idx.PrunedBfs(Digraph(5, arcs), 1, 2, 100, &scratch),
            ReachIndex::Verdict::kNo);
  EXPECT_EQ(idx.PrunedBfs(Digraph(5, arcs), 0, 3, 0, &scratch),
            ReachIndex::Verdict::kUnknown);

  // Chains partition the nodes.
  EXPECT_GT(idx.num_chains(), 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_GE(idx.chain_id(v), 0);
    EXPECT_LT(idx.chain_id(v), idx.num_chains());
  }
  EXPECT_FALSE(ReachIndex::Build(Digraph(2, {{0, 1}, {1, 0}})).ok());
}

// The rule is the one classification: every rule has its own stable name,
// and the stage grouping derived from it is total and reaches every stage.
TEST(ReachRuleTest, EveryRuleHasAUniqueName) {
  std::set<std::string> names;
  for (int r = 0; r < kNumReachRules; ++r) {
    const std::string name = ReachRuleName(static_cast<ReachRule>(r));
    EXPECT_NE(name, "?") << r;
    EXPECT_TRUE(names.insert(name).second) << "duplicate rule name " << name;
  }
}

TEST(ReachRuleTest, StageOfIsTotalAndReachesEveryStage) {
  std::set<int> stages;
  for (int r = 0; r < kNumReachRules; ++r) {
    const int stage = static_cast<int>(StageOf(static_cast<ReachRule>(r)));
    ASSERT_GE(stage, 0) << r;
    ASSERT_LT(stage, kNumReachStages) << r;
    stages.insert(stage);
  }
  EXPECT_EQ(static_cast<int>(stages.size()), kNumReachStages);
  for (int s = 0; s < kNumReachStages; ++s) {
    EXPECT_STRNE(ReachStageName(static_cast<ReachStage>(s)), "?") << s;
  }
  static_assert(StageOf(ReachRule::kSameScc) == ReachStage::kTrivial);
  static_assert(StageOf(ReachRule::kObsLevel) == ReachStage::kObservation);
}

}  // namespace
}  // namespace tcdb

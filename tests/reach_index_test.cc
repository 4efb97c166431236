// Differential tests of the online reachability subsystem: ReachService
// answers are cross-checked against ground truth from the in-memory oracle
// closure, a TcSession SRCH run, and ComputeReduction closure sizes, over
// the paper's F x l generator grid — including the batched and warm-cache
// serving paths and every rung of the fallback ladder — plus the label
// index's oreach observations and the core image's decoder.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "core/session.h"
#include "graph/algorithms.h"
#include "graph/analyzer.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "reach/load_driver.h"
#include "reach/reach_service.h"
#include "util/codec.h"
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


// --- The oreach observations ------------------------------------------
//
// Every observation verdict differentially pinned against the BFS
// reference closure across the paper generator and all five scale
// families, cyclic inputs through the condensation front, a 50-seed
// oreach-on vs oreach-off bit-identical sweep over full ReachService
// answers, trained-pivot determinism, image round trips with truncation
// errors, and ReachCore::Decide as the one O(1) decision behind both the
// service ladder and the adversarial miner's probe.

ReachIndex BuildWithObservations(
    const Digraph& dag,
    const std::vector<std::pair<NodeId, NodeId>>& traffic = {}) {
  ReachIndexOptions options;
  options.oreach = true;
  auto built = ReachIndex::Build(dag, options, traffic);
  TCDB_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every non-unknown verdict on every pair must agree with the reference
// closure — the labels are only allowed to be incomplete, never wrong —
// and the observations must decide some of the pairs the base rules
// leave over.
void ExpectSoundOnAllPairs(const Digraph& dag, const ReachIndex& index,
                           const std::string& context) {
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(dag);
  int64_t observed = 0;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (NodeId v = 0; v < dag.NumNodes(); ++v) {
      ReachRule rule = ReachRule::kSelf;
      const ReachIndex::Verdict verdict = index.TryDecide(u, v, &rule);
      if (verdict == ReachIndex::Verdict::kUnknown) continue;
      ASSERT_EQ(verdict == ReachIndex::Verdict::kYes,
                OracleReaches(closure, u, v))
          << context << ": u=" << u << " v=" << v
          << " rule=" << ReachRuleName(rule);
      if (StageOf(rule) == ReachStage::kObservation) ++observed;
    }
  }
  EXPECT_GT(observed, 0) << context << ": the observations decided nothing";
}

TEST(ObservationBatteryTest, EmptyAndDegenerate) {
  const ReachIndex empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_FALSE(empty.has_observations());

  const ReachIndex one = BuildWithObservations(Digraph(1, {}));
  EXPECT_TRUE(one.has_observations());
  ReachRule rule = ReachRule::kCacheHit;
  EXPECT_EQ(one.TryDecide(0, 0, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSelf);

  ReachIndexOptions options;
  options.oreach = true;
  auto none = ReachIndex::Build(Digraph(0, {}), options);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value().num_nodes(), 0);
  EXPECT_FALSE(none.value().has_observations());
}

TEST(ObservationBatteryTest, RejectsCyclicInput) {
  ReachIndexOptions options;
  options.oreach = true;
  EXPECT_FALSE(
      ReachIndex::Build(Digraph(3, {{0, 1}, {1, 2}, {2, 0}}), options).ok());
}

TEST(ObservationBatteryTest, HandDagObservations) {
  // Two parallel diamonds plus an isolated node: 0->1->3, 0->2->3, 4.
  const Digraph dag(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  // With the default 8 structural pivots every one of the 5 nodes would be
  // a pivot and the base rules would decide every pair; without them the
  // levels, orders, cuts and trained pivots get pairs to decide.
  ReachIndexOptions options;
  options.oreach = true;
  options.num_supportive = 0;
  auto built = ReachIndex::Build(dag, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ReachIndex& index = built.value();
  EXPECT_TRUE(index.has_observations());
  EXPECT_EQ(index.num_orders(), 4);  // the base order and three more
  EXPECT_EQ(index.num_cuts(), 3);
  EXPECT_EQ(index.num_supportive(), 0);
  EXPECT_EQ(index.num_trained_pivots(), 5);  // min(12, n)
  EXPECT_EQ(static_cast<int32_t>(index.pivot_nodes().size()), 5);
  // The isolated node reaches nothing and is reached by nothing; the
  // backward pair is refuted; reflexive pairs are the kSelf rule's.
  EXPECT_EQ(index.TryDecide(0, 4), ReachIndex::Verdict::kNo);
  EXPECT_EQ(index.TryDecide(4, 3), ReachIndex::Verdict::kNo);
  EXPECT_EQ(index.TryDecide(3, 0), ReachIndex::Verdict::kNo);
  ReachRule rule = ReachRule::kCacheHit;
  EXPECT_EQ(index.TryDecide(2, 2, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSelf);
  ExpectSoundOnAllPairs(dag, index, "hand dag");
}

// The observations run after every base rule, so they only decide pairs
// the base rules leave undecided: with oreach on, every pair the
// oreach-off index decides gets the same verdict and the same rule, and
// the oreach-off index carries no observation at all.
TEST(ObservationBatteryTest, ObservationsOnlyDecideTheBaseResidue) {
  const GeneratorParams params{300, 4, 60, 5};
  const Digraph dag(params.num_nodes, GenerateDag(params));
  auto plain = ReachIndex::Build(dag);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain.value().has_observations());
  EXPECT_EQ(plain.value().num_orders(), 1);
  EXPECT_EQ(plain.value().num_cuts(), 0);
  EXPECT_EQ(plain.value().num_trained_pivots(), 0);
  const ReachIndex observed = BuildWithObservations(dag);
  EXPECT_EQ(observed.num_supportive(), plain.value().num_supportive());

  int64_t residue_decided = 0;
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      ReachRule base_rule = ReachRule::kCacheHit;
      ReachRule rule = ReachRule::kCacheHit;
      const ReachIndex::Verdict base =
          plain.value().TryDecide(u, v, &base_rule);
      const ReachIndex::Verdict verdict = observed.TryDecide(u, v, &rule);
      if (base == ReachIndex::Verdict::kUnknown) {
        if (verdict != ReachIndex::Verdict::kUnknown) {
          ASSERT_EQ(StageOf(rule), ReachStage::kObservation)
              << "u=" << u << " v=" << v;
          ++residue_decided;
        }
        continue;
      }
      ASSERT_EQ(verdict, base) << "u=" << u << " v=" << v;
      ASSERT_EQ(rule, base_rule) << "u=" << u << " v=" << v;
    }
  }
  EXPECT_GT(residue_decided, 0);
}

// The acceptance differential: every verdict sound on the paper
// generator and on all five scale families.
TEST(ObservationBatteryTest, DifferentialPaperGenerator) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    GeneratorParams params;
    params.num_nodes = 300;
    params.avg_out_degree = 5;
    params.locality = 60;
    params.seed = seed;
    const Digraph dag(params.num_nodes, GenerateDag(params));
    ExpectSoundOnAllPairs(dag, BuildWithObservations(dag),
                          "generator seed " + std::to_string(seed));
  }
}

TEST(ObservationBatteryTest, DifferentialAllScaleFamilies) {
  for (const ScaleFamily family : kAllScaleFamilies) {
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = 400;
    params.width = 16;
    params.degree = 3;
    params.locality = 32;
    params.seed = 12;
    const Digraph dag(params.num_nodes, ScaleArcList(params));
    ExpectSoundOnAllPairs(dag, BuildWithObservations(dag),
                          ScaleFamilyName(family));
  }
}

// Cyclic input through the serving stack: the oreach core is built on the
// condensation; all answers must still match the reference closure of the
// original graph.
TEST(ObservationBatteryTest, CyclicCondensedDifferential) {
  GeneratorParams params;
  params.num_nodes = 200;
  params.avg_out_degree = 4;
  params.locality = 50;
  params.seed = 4;
  ArcList arcs = GenerateDag(params);
  // Back arcs close cycles; the service condenses first.
  arcs.push_back({150, 20});
  arcs.push_back({199, 0});
  arcs.push_back({90, 41});
  const Digraph graph(params.num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  ReachServiceOptions options = LabelLadderOptions();
  options.index.oreach = true;
  auto service = ReachService::Build(arcs, params.num_nodes, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service.value()->condensed());
  ASSERT_TRUE(service.value()->index().has_observations());
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().reachable, OracleReaches(closure, u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

// The acceptance sweep: across 50 seeds, an oreach service must give
// bit-identical answers to an oreach-off service on the same traffic.
// (The observations may only move *which rung* answers, never the answer.)
TEST(ObservationBatteryTest, BatteryOnOffBitIdenticalAcross50Seeds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    GeneratorParams params;
    params.num_nodes = 150 + static_cast<NodeId>(seed % 7) * 20;
    params.avg_out_degree = 3 + static_cast<int32_t>(seed % 4);
    params.locality = 40;
    params.seed = seed;
    const ArcList arcs = GenerateDag(params);

    auto off = ReachService::Build(arcs, params.num_nodes,
                                   LabelLadderOptions());
    ASSERT_TRUE(off.ok()) << off.status().ToString();

    ReachServiceOptions on_options = LabelLadderOptions();
    on_options.index.oreach = true;
    auto on = ReachService::Build(arcs, params.num_nodes, on_options);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_TRUE(on.value()->index().has_observations());

    Rng rng(seed * 1315423911ull + 1);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 300; ++i) {
      pairs.emplace_back(
          static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)),
          static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)));
    }
    auto off_answers = off.value()->QueryBatch(pairs);
    auto on_answers = on.value()->QueryBatch(pairs);
    ASSERT_TRUE(off_answers.ok()) << off_answers.status().ToString();
    ASSERT_TRUE(on_answers.ok()) << on_answers.status().ToString();
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(off_answers.value()[i].reachable,
                on_answers.value()[i].reachable)
          << "seed=" << seed << " pair " << pairs[i].first << "->"
          << pairs[i].second;
    }
  }
}

// Pivot training is a pure function of (dag, options, traffic): two
// builds must pick the same pivots and serialize byte-identically.
TEST(ObservationBatteryTest, PivotSelectionIsDeterministic) {
  GeneratorParams params;
  params.num_nodes = 400;
  params.avg_out_degree = 5;
  params.locality = 80;
  params.seed = 6;
  const Digraph dag(params.num_nodes, GenerateDag(params));

  // A fixed traffic sample (what a bench would feed from the model).
  Rng rng(99);
  std::vector<std::pair<NodeId, NodeId>> traffic;
  for (int i = 0; i < 2000; ++i) {
    traffic.emplace_back(
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)),
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)));
  }

  const ReachIndex a = BuildWithObservations(dag, traffic);
  const ReachIndex b = BuildWithObservations(dag, traffic);
  EXPECT_GT(a.num_trained_pivots(), 0);
  EXPECT_EQ(a.pivot_nodes(), b.pivot_nodes());
  std::string image_a;
  std::string image_b;
  a.SerializeAppend(&image_a);
  b.SerializeAppend(&image_b);
  EXPECT_EQ(image_a, image_b);

  // A different traffic shape is allowed to (and here does) move the
  // trained pivots — the training signal is real, not decorative.
  std::vector<std::pair<NodeId, NodeId>> skewed;
  for (int i = 0; i < 2000; ++i) {
    skewed.emplace_back(static_cast<NodeId>(rng.Uniform(0, 10)),
                        static_cast<NodeId>(rng.Uniform(0, 10)));
  }
  const ReachIndex c = BuildWithObservations(dag, skewed);
  EXPECT_NE(a.pivot_nodes(), c.pivot_nodes());
}

// Round trips with the observations and without: the restored index
// decides every pair with the same verdict and rule, and re-serializes
// to the same bytes.
TEST(ObservationBatteryTest, SerializationRoundTrip) {
  GeneratorParams params;
  params.num_nodes = 250;
  params.avg_out_degree = 4;
  params.locality = 50;
  params.seed = 8;
  const Digraph dag(params.num_nodes, GenerateDag(params));
  for (const bool oreach : {false, true}) {
    SCOPED_TRACE(oreach);
    ReachIndexOptions options;
    options.oreach = oreach;
    auto built = ReachIndex::Build(dag, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ReachIndex& index = built.value();

    std::string image;
    index.SerializeAppend(&image);
    codec::Reader reader(image.data(), image.size());
    auto restored = ReachIndex::Deserialize(&reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(reader.remaining(), 0u);

    EXPECT_EQ(restored.value().num_nodes(), index.num_nodes());
    EXPECT_EQ(restored.value().has_observations(), oreach);
    EXPECT_EQ(restored.value().num_orders(), index.num_orders());
    EXPECT_EQ(restored.value().num_cuts(), index.num_cuts());
    EXPECT_EQ(restored.value().num_supportive(), index.num_supportive());
    EXPECT_EQ(restored.value().pivot_nodes(), index.pivot_nodes());
    for (NodeId u = 0; u < params.num_nodes; ++u) {
      for (NodeId v = 0; v < params.num_nodes; ++v) {
        ReachRule want = ReachRule::kCacheHit;
        ReachRule got = ReachRule::kCacheHit;
        ASSERT_EQ(restored.value().TryDecide(u, v, &got),
                  index.TryDecide(u, v, &want))
            << "u=" << u << " v=" << v;
        ASSERT_EQ(got, want) << "u=" << u << " v=" << v;
      }
    }
    std::string image2;
    restored.value().SerializeAppend(&image2);
    EXPECT_EQ(image, image2);
  }
}

TEST(ObservationBatteryTest, TruncatedImagesError) {
  const Digraph dag(40, {{0, 1}, {1, 2}, {3, 4}, {2, 5}, {4, 5}});
  const ReachIndex index = BuildWithObservations(dag);
  std::string image;
  index.SerializeAppend(&image);
  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{3}, image.size() / 4, image.size() / 2,
        image.size() - 1}) {
    const std::string truncated = image.substr(0, keep);
    codec::Reader reader(truncated.data(), truncated.size());
    auto restored = ReachIndex::Deserialize(&reader);
    EXPECT_FALSE(restored.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

// The observation rung shows up in the service ladder: on traffic the
// base rules cannot decide, kObservation answers a nonzero share,
// attributed to individual observation rules, and the rule counters sum
// to queries.
TEST(ObservationBatteryTest, ServiceLadderAttribution) {
  GeneratorParams params;
  params.num_nodes = 500;
  params.avg_out_degree = 5;
  params.locality = 100;
  params.seed = 13;
  const ArcList arcs = GenerateDag(params);

  ReachServiceOptions options = LabelLadderOptions();
  options.index.oreach = true;
  auto service = ReachService::Build(arcs, params.num_nodes, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  Rng rng(31);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 4000; ++i) {
    pairs.emplace_back(
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)),
        static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)));
  }
  auto answers = service.value()->QueryBatch(pairs);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();

  const ReachStats& stats = service.value()->stats();
  EXPECT_GT(stats.Decided(ReachStage::kObservation), 0);
  int64_t rule_total = 0;
  int64_t observation_rules = 0;
  for (int r = 0; r < kNumReachRules; ++r) {
    rule_total += stats.rule_decided[r];
    const ReachRule rule = static_cast<ReachRule>(r);
    if (rule >= ReachRule::kObsTopoOrder &&
        rule <= ReachRule::kObsPivotBwdCut) {
      observation_rules += stats.rule_decided[r];
    }
  }
  EXPECT_EQ(rule_total, stats.queries);
  EXPECT_EQ(observation_rules, stats.Decided(ReachStage::kObservation));
}

// ReachCore::Decide is the one O(1) decision: the adversarial miner's
// probe is exactly "Decide is not unknown", and the service ladder
// searches exactly the pairs Decide leaves unknown, answering the rest
// with Decide's verdict and rule. Checked on every pair of a small
// cyclic graph with the observations.
TEST(ObservationBatteryTest, LadderProbeIsCoreDecide) {
  GeneratorParams params;
  params.num_nodes = 300;
  params.avg_out_degree = 5;
  params.locality = 100;
  params.seed = 8;
  ArcList arcs = GenerateDag(params);
  arcs.push_back({250, 40});
  arcs.push_back({299, 120});
  const Digraph graph(params.num_nodes, arcs);

  TrafficModelOptions traffic;
  traffic.kind = WorkloadKind::kUniform;
  traffic.seed = 5;
  ReachServiceOptions options = LabelLadderOptions();
  options.index.oreach = true;
  options.index.oreach_traffic = MakeModelWorkload(graph, traffic, 512);
  options.cache_capacity = 0;
  auto built = ReachCore::Build(arcs, params.num_nodes, options.index);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ReachCore& core = *built.value();
  ASSERT_TRUE(core.condensed());
  ASSERT_TRUE(core.index.has_observations());
  const WorkloadDecideProbe probe = MakeLadderProbe(built.value());
  const std::unique_ptr<ReachService> service =
      ReachService::Create(built.value(), options);

  int64_t undecided = 0;
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      ReachRule rule = ReachRule::kSelf;
      const ReachIndex::Verdict verdict = core.Decide(u, v, &rule);
      const bool decided = verdict != ReachIndex::Verdict::kUnknown;
      ASSERT_EQ(probe(u, v), decided) << "u=" << u << " v=" << v;
      auto answer = service->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      if (decided) {
        EXPECT_EQ(answer.value().reachable,
                  verdict == ReachIndex::Verdict::kYes);
        EXPECT_EQ(answer.value().rule, rule);
      } else {
        ++undecided;
        EXPECT_EQ(answer.value().rule, ReachRule::kPrunedBfs);
      }
    }
  }
  EXPECT_GT(undecided, 0);
  EXPECT_EQ(undecided, service->stats().RuleDecided(ReachRule::kPrunedBfs));
}

// --- The core image ---------------------------------------------------

// Overwrites the little-endian count of `width` bytes at `offset`.
void PutCount(std::string* image, size_t offset, int width, uint64_t value) {
  for (int b = 0; b < width; ++b) {
    (*image)[offset + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

uint64_t GetCount(const std::string& image, size_t offset, int width) {
  uint64_t value = 0;
  for (int b = 0; b < width; ++b) {
    value |= uint64_t{static_cast<uint8_t>(image[offset + b])} << (8 * b);
  }
  return value;
}

Status DecodeCore(const std::string& image) {
  codec::Reader reader(image.data(), image.size());
  return ReachCore::Deserialize(&reader).status();
}

// A kLabels core with every count field of its image in use: a cyclic
// input, so the node map outgrows the condensation, with the observations.
std::shared_ptr<const ReachCore> ObservedLabelCore() {
  const GeneratorParams params{60, 3, 20, 2};
  ArcList arcs = GenerateDag(params);
  arcs.push_back({50, 10});
  ReachIndexOptions options;
  options.backend = ReachBackend::kLabels;
  options.oreach = true;
  auto core = ReachCore::Build(arcs, params.num_nodes, options);
  TCDB_CHECK(core.ok()) << core.status().ToString();
  TCDB_CHECK(core.value()->condensed());
  return core.value();
}

// Every count field of a small valid image, inflated past the bytes the
// image has left, is refused before anything is sized from it.
TEST(ReachCoreImageTest, InflatedCountsExceedImage) {
  const std::shared_ptr<const ReachCore> core = ObservedLabelCore();
  const ReachIndex& index = core->index;
  std::string image;
  core->SerializeAppend(&image);
  ASSERT_TRUE(DecodeCore(image).ok());

  // Offsets from the layouts of ReachCore::SerializeAppend and
  // ReachIndex::SerializeAppend.
  const uint64_t n = static_cast<uint64_t>(core->dag.NumNodes());
  const uint64_t m = static_cast<uint64_t>(core->dag.NumArcs());
  const uint64_t words = (n + 63) / 64;
  const size_t index_at = 21 + 8 * m + 4 * core->num_input_nodes + 4 * n;
  const size_t cuts_at =
      index_at + 9 + 12 * n * index.num_orders() + 16 * n + 4 + 8 * n;
  const size_t pivots_at = cuts_at + 4 + 2 * index.num_cuts() * words * 8;
  ASSERT_EQ(GetCount(image, index_at, 4), n);
  ASSERT_EQ(GetCount(image, index_at + 5, 4), 4u);
  ASSERT_EQ(GetCount(image, cuts_at, 4), 3u);
  ASSERT_EQ(GetCount(image, pivots_at, 4), index.pivot_nodes().size());

  struct Field {
    const char* name;
    size_t offset;
    int width;
  };
  const Field fields[] = {
      {"input node count", 4, 4},    {"condensed node count", 9, 4},
      {"arc count", 13, 8},          {"index node count", index_at, 4},
      {"order count", index_at + 5, 4}, {"cut count", cuts_at, 4},
      {"pivot count", pivots_at, 4},
  };
  for (const Field& field : fields) {
    SCOPED_TRACE(field.name);
    std::string inflated = image;
    PutCount(&inflated, field.offset, field.width,
             GetCount(image, field.offset, field.width) + image.size());
    const Status status = DecodeCore(inflated);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.message().find("exceeds image"), std::string::npos)
        << status.ToString();
  }
}

// Counts whose byte size overflows 64 bits are refused too, where a
// check of count * width against the bytes left would wrap and pass.
TEST(ReachCoreImageTest, OverflowingCountsAreRejected) {
  std::string labels;
  ObservedLabelCore()->SerializeAppend(&labels);
  PutCount(&labels, 13, 8, (uint64_t{1} << 61) + 1);  // the arc count
  EXPECT_EQ(DecodeCore(labels).code(), StatusCode::kCorruption);

  const GeneratorParams params = CatalogParams(FamilyByName("G12"), 0);
  auto chain = ReachCore::Build(GenerateDag(params), params.num_nodes);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain.value()->backend, ReachBackend::kChain);
  std::string image;
  chain.value()->SerializeAppend(&image);
  const uint64_t n = static_cast<uint64_t>(chain.value()->dag.NumNodes());
  const size_t chain_at = 21 + 8 * chain.value()->dag.NumArcs() + 8 * n;
  ASSERT_EQ(GetCount(image, chain_at, 4), n);
  PutCount(&image, chain_at + 8, 8, (uint64_t{1} << 62) + 1);  // frontier
  EXPECT_EQ(DecodeCore(image).code(), StatusCode::kCorruption);
}

// An image of the previous kLabels layout — no layout tag, and the label
// index followed by the battery flag byte — is refused, never misread.
TEST(ReachCoreImageTest, PreviousLayoutIsRejected) {
  for (const uint8_t battery : {0, 1}) {
    SCOPED_TRACE(static_cast<int>(battery));
    // The path 0 -> 1 -> 2, field by field as that encoder wrote it.
    std::string image;
    codec::PutI32(&image, 3);  // input nodes
    codec::PutU8(&image, static_cast<uint8_t>(ReachBackend::kLabels));
    codec::PutI32(&image, 3);  // condensed nodes
    codec::PutU64(&image, 2);  // arcs
    for (const int32_t endpoint : {0, 1, 1, 2}) {
      codec::PutI32(&image, endpoint);
    }
    for (const int32_t component : {0, 1, 2}) {
      codec::PutI32(&image, component);  // node map
    }
    for (int i = 0; i < 3; ++i) codec::PutI32(&image, 1);  // SCC sizes
    codec::PutU32(&image, 3);  // index nodes
    // topo pos, max reach, min origin, pre, post, chain id, chain pos.
    const int32_t labels[7][3] = {{0, 1, 2}, {2, 2, 2}, {0, 0, 0}, {0, 1, 2},
                                  {5, 4, 3}, {0, 0, 0}, {0, 1, 2}};
    for (const auto& array : labels) {
      for (const int32_t label : array) codec::PutI32(&image, label);
    }
    codec::PutI32(&image, 1);  // chains
    codec::PutU32(&image, 0);  // pivots
    codec::PutU8(&image, battery);
    const Status status = DecodeCore(image);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace tcdb

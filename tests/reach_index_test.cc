// Differential tests of the online reachability subsystem: ReachService
// answers are cross-checked against ground truth from the in-memory oracle
// closure, a TcSession SRCH run, and ComputeReduction closure sizes, over
// the paper's F x l generator grid — including the batched and warm-cache
// serving paths and both backends — plus the search core's root words and
// search, and the core image's decoder.

#include <gtest/gtest.h>

#include <algorithm>
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

// The random pairs that open every MakeQueries mix.
constexpr size_t kRandomQueries = 150;

// Query mix for one graph: kRandomQueries random pairs, then arc endpoints
// (guaranteed positives that stress the positive rules).
std::vector<std::pair<NodeId, NodeId>> MakeQueries(const ArcList& arcs,
                                                   NodeId num_nodes,
                                                   uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(seed);
  for (size_t i = 0; i < kRandomQueries; ++i) {
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

// Options that pin the search core, for the tests that count its rules
// and searches (the default kAuto serves some graphs from chain labels).
ReachServiceOptions SearchCoreOptions() {
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
    int64_t random_decided = 0;
    int64_t random_queries = 0;
    for (int seed = 1; seed <= kSeedsPerFamily; ++seed) {
      const GeneratorParams params{kNodes, family.avg_out_degree,
                                   family.locality,
                                   static_cast<uint64_t>(seed)};
      const ArcList arcs = GenerateDag(params);
      const Digraph graph(kNodes, arcs);
      const std::vector<std::vector<NodeId>> closure =
          ReferenceClosure(graph);

      auto service = ReachService::Build(arcs, kNodes, SearchCoreOptions());
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      const auto queries = MakeQueries(arcs, kNodes, 100 + seed);
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto [u, v] = queries[i];
        auto answer = service.value()->Query(u, v);
        ASSERT_TRUE(answer.ok());
        EXPECT_EQ(answer.value().reachable, OracleReaches(closure, u, v))
            << "F=" << family.avg_out_degree << " l=" << family.locality
            << " seed=" << seed << " (" << u << ", " << v << ") via "
            << ReachRuleName(answer.value().rule);
        if (i < kRandomQueries) {
          ++random_queries;
          if (answer.value().rule != ReachRule::kPrunedBfs) ++random_decided;
        }
      }
    }
    // Acceptance: the O(1) labels decide > 80% of the random queries per
    // family (the rest goes to the search). The arc-endpoint queries only
    // check answers: a direct arc is the search's first expansion.
    EXPECT_GT(random_decided, (random_queries * 8) / 10)
        << "F=" << family.avg_out_degree << " l=" << family.locality
        << ": " << random_decided << " of " << random_queries
        << " random queries decided without the search";
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

    auto service = ReachService::Build(arcs, kNodes, SearchCoreOptions());
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
    // the search-decided queries — the cache policy deliberately skips
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

// Every backend and cache configuration produces the same (correct)
// answers, and the search actually fires on the search core.
TEST(ReachFallbackLadderTest, AllConfigurationsAgreeWithOracle) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  ReachServiceOptions no_cache = SearchCoreOptions();
  no_cache.cache_capacity = 0;
  ReachServiceOptions chain;
  chain.index.backend = ReachBackend::kChain;
  const ReachServiceOptions defaults;

  for (const ReachServiceOptions& options :
       {no_cache, SearchCoreOptions(), chain, defaults}) {
    auto service = ReachService::Build(arcs, params.num_nodes, options);
    ASSERT_TRUE(service.ok());
    const auto queries = MakeQueries(arcs, params.num_nodes, 5);
    for (const auto& [u, v] : queries) {
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer.value().reachable, OracleReaches(closure, u, v));
    }
    auto batch = service.value()->QueryBatch(queries);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(batch.value()[i].reachable,
                OracleReaches(closure, queries[i].first, queries[i].second));
    }
  }

  auto search_service = ReachService::Build(arcs, params.num_nodes, no_cache);
  ASSERT_TRUE(search_service.ok());
  const auto queries = MakeQueries(arcs, params.num_nodes, 5);
  auto batch = search_service.value()->QueryBatch(queries);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(search_service.value()->stats().Decided(ReachStage::kPrunedBfs),
            0);
  EXPECT_GT(search_service.value()->stats().bfs_expansions, 0);
}

// Regression: cache_insertions used to count every Insert() call, even
// when the cache was disabled (capacity 0) or the call merely refreshed an
// existing entry — the counter could exceed the cache's lifetime content.
TEST(ReachServiceTest, CacheInsertionsCountOnlyStoredEntries) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);

  // Caching disabled: nothing can be stored, so nothing may be counted.
  ReachServiceOptions no_cache = SearchCoreOptions();
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

  // A searched pair asked twice in one batch is searched and stored once;
  // the second copy is a cache hit and must not be counted.
  auto probe = ReachService::Build(arcs, params.num_nodes, SearchCoreOptions());
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

  auto service =
      ReachService::Build(arcs, params.num_nodes, SearchCoreOptions());
  ASSERT_TRUE(service.ok());
  const std::vector<std::pair<NodeId, NodeId>> twice = {fallback_pair,
                                                        fallback_pair};
  auto batch = service.value()->QueryBatch(twice);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(service.value()->stats().cache_insertions, 1);
  EXPECT_EQ(batch.value()[1].rule, ReachRule::kCacheHit);
}

// Regression: QueryBatch timed each pass-1 classification but threw the
// timer away for queries that fell through to the search, so their
// recorded latency missed the label work. With a tick clock (+1s per
// read), a single-search batch reads the clock twice in pass 1 and twice
// in pass 2: the recorded total must be 2.0s, not the 1.0s of the search
// interval alone.
TEST(ReachServiceTest, BatchLatencyIncludesPassOneClassification) {
  const GeneratorParams params{250, 5, 100, 19};
  const ArcList arcs = GenerateDag(params);

  ReachServiceOptions no_cache = SearchCoreOptions();
  no_cache.cache_capacity = 0;

  auto probe = ReachService::Build(arcs, params.num_nodes, no_cache);
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

  auto service = ReachService::Build(arcs, params.num_nodes, no_cache);
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

// 4 -> 3 -> 1 and 4 -> 2 -> 1 (a diamond), 0 isolated: ids are
// reverse-topological, as Condense numbers them.
Digraph SmallDiamond() { return Digraph(5, {{4, 3}, {4, 2}, {3, 1}, {2, 1}}); }

TEST(ReachIndexTest, LabelInvariantsOnASmallDag) {
  const Digraph dag = SmallDiamond();
  auto index = ReachIndex::Build(dag);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const ReachIndex& idx = index.value();
  EXPECT_EQ(idx.num_nodes(), 5);

  ReachRule rule;
  EXPECT_EQ(idx.TryDecide(1, 4, &rule), ReachIndex::Verdict::kNo);
  EXPECT_EQ(rule, ReachRule::kTopoWindow);
  EXPECT_EQ(idx.TryDecide(4, 1, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSupportiveThrough);
  EXPECT_EQ(idx.TryDecide(3, 2, &rule), ReachIndex::Verdict::kNo);
  EXPECT_EQ(rule, ReachRule::kSupportiveFwdCut);
  EXPECT_EQ(idx.TryDecide(0, 0, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSelf);
  // The isolated node reaches nothing and is reached by nothing.
  EXPECT_EQ(idx.TryDecide(4, 0, nullptr), ReachIndex::Verdict::kNo);
  EXPECT_EQ(idx.TryDecide(1, 0, nullptr), ReachIndex::Verdict::kNo);

  // The search is exact, with no budget.
  ReachIndex::SearchScratch scratch;
  EXPECT_TRUE(idx.Search(dag, 4, 1, &scratch));
  EXPECT_TRUE(idx.Search(dag, 2, 1, &scratch));
  EXPECT_TRUE(idx.Search(dag, 3, 3, &scratch));
  EXPECT_FALSE(idx.Search(dag, 3, 2, &scratch));
  EXPECT_FALSE(idx.Search(dag, 0, 4, &scratch));

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
  static_assert(StageOf(ReachRule::kSupportiveBwdCut) ==
                ReachStage::kSupportiveNegative);
}


// --- The root-word battery ----------------------------------------------
//
// In O'Reach's terms the 64 root words are a battery of supportive-vertex
// observations, and this suite pins them: the roots and words on a hand
// DAG, the id test's place before the word tests, every verdict and every
// search against the BFS reference closure across the paper generator and
// all five scale families, cyclic inputs through the condensation, a
// 50-seed search-core vs chain-core bit-identical sweep over full
// ReachService answers, root determinism, words rebuilt from an image,
// truncated images, and ReachCore::Decide as the one O(1) decision behind
// both the service ladder and the adversarial miner's probe.

// The condensation of an acyclic `graph`: the same DAG with its ids
// renumbered reverse-topologically, which is what a ReachIndex needs.
Digraph Condensed(const Digraph& graph) { return Condense(graph).dag; }

ReachIndex BuildIndexOrDie(const Digraph& dag) {
  auto built = ReachIndex::Build(dag);
  TCDB_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

bool DecidedByWords(ReachRule rule) {
  return StageOf(rule) == ReachStage::kSupportivePositive ||
         StageOf(rule) == ReachStage::kSupportiveNegative;
}

// Every non-unknown verdict on every pair must agree with the reference
// closure, the search must answer every pair exactly, and the words must
// decide some pair. Returns the number of pairs left to the search.
int64_t ExpectExactOnAllPairs(const Digraph& dag, const std::string& context) {
  const ReachIndex index = BuildIndexOrDie(dag);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(dag);
  ReachIndex::SearchScratch scratch;
  int64_t by_words = 0;
  int64_t searched = 0;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (NodeId v = 0; v < dag.NumNodes(); ++v) {
      const bool truth = OracleReaches(closure, u, v);
      EXPECT_EQ(index.Search(dag, u, v, &scratch), truth)
          << context << ": search u=" << u << " v=" << v;
      ReachRule rule = ReachRule::kCacheHit;
      const ReachIndex::Verdict verdict = index.TryDecide(u, v, &rule);
      if (verdict == ReachIndex::Verdict::kUnknown) {
        ++searched;
        continue;
      }
      EXPECT_EQ(verdict == ReachIndex::Verdict::kYes, truth)
          << context << ": u=" << u << " v=" << v
          << " rule=" << ReachRuleName(rule);
      if (DecidedByWords(rule)) ++by_words;
    }
  }
  EXPECT_GT(by_words, 0) << context << ": the words decided nothing";
  return searched;
}

TEST(ObservationBatteryTest, EmptyAndDegenerate) {
  const ReachIndex empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_TRUE(empty.roots().empty());

  auto none = ReachIndex::Build(Digraph(0, {}));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value().num_nodes(), 0);
  EXPECT_TRUE(none.value().roots().empty());

  const Digraph single(1, {});
  const ReachIndex one = BuildIndexOrDie(single);
  EXPECT_EQ(one.roots(), std::vector<NodeId>{0});
  EXPECT_EQ(one.anc(0), 1u);
  EXPECT_EQ(one.desc(0), 1u);
  ReachRule rule = ReachRule::kCacheHit;
  EXPECT_EQ(one.TryDecide(0, 0, &rule), ReachIndex::Verdict::kYes);
  EXPECT_EQ(rule, ReachRule::kSelf);
  ReachIndex::SearchScratch scratch;
  EXPECT_TRUE(one.Search(single, 0, 0, &scratch));
}

// A cycle, and an acyclic graph whose ids run upward, are both refused:
// the id test needs every arc to run from a higher id to a lower one.
TEST(ObservationBatteryTest, RejectsCyclicInput) {
  for (const Digraph& graph :
       {Digraph(3, {{0, 1}, {1, 2}, {2, 0}}), Digraph(2, {{0, 1}}),
        Digraph(2, {{1, 1}})}) {
    const Status status = ReachIndex::Build(graph).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

TEST(ObservationBatteryTest, HandDagObservations) {
  // SmallDiamond's (in + 1) * (out + 1): 4 for nodes 2 and 3, 3 for nodes
  // 1 and 4, 1 for node 0; ties go to the smaller id.
  const ReachIndex index = BuildIndexOrDie(SmallDiamond());
  ASSERT_EQ(index.roots(), (std::vector<NodeId>{2, 3, 1, 4, 0}));
  // Bit i is roots()[i]: node 2 is bit 0, 3 bit 1, 1 bit 2, 4 bit 3, 0
  // bit 4. anc: the roots a node reaches; desc: the roots reaching it.
  const uint64_t anc[5] = {0b10000, 0b00100, 0b00101, 0b00110, 0b01111};
  const uint64_t desc[5] = {0b10000, 0b01111, 0b01001, 0b01010, 0b01000};
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(index.anc(v), anc[v]) << v;
    EXPECT_EQ(index.desc(v), desc[v]) << v;
  }
}

// The id test runs before the word tests, so the words only decide pairs
// it leaves (u > v): every pair with u < v is the id test's "no", and
// every other verdict is DecideByWords on the pair's words, rule
// included.
TEST(ObservationBatteryTest, ObservationsOnlyDecideTheBaseResidue) {
  const GeneratorParams params{300, 4, 60, 5};
  const Digraph dag =
      Condensed(Digraph(params.num_nodes, GenerateDag(params)));
  const ReachIndex index = BuildIndexOrDie(dag);
  int64_t by_words = 0;
  int64_t residue = 0;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (NodeId v = 0; v < dag.NumNodes(); ++v) {
      if (u == v) continue;
      ReachRule rule = ReachRule::kCacheHit;
      const ReachIndex::Verdict verdict = index.TryDecide(u, v, &rule);
      if (u < v) {
        ASSERT_EQ(verdict, ReachIndex::Verdict::kNo);
        ASSERT_EQ(rule, ReachRule::kTopoWindow);
        continue;
      }
      ReachRule word_rule = ReachRule::kCacheHit;
      const ReachIndex::Verdict words = ReachIndex::DecideByWords(
          index.anc(u), index.desc(u), index.anc(v), index.desc(v),
          &word_rule);
      ASSERT_EQ(verdict, words) << "u=" << u << " v=" << v;
      if (words == ReachIndex::Verdict::kUnknown) {
        ++residue;
        continue;
      }
      ASSERT_EQ(rule, word_rule) << "u=" << u << " v=" << v;
      ++by_words;
    }
  }
  EXPECT_GT(by_words, 0);
  EXPECT_GT(residue, 0);
}

// The acceptance differential: every verdict and every search exact on
// the paper generator and on all five scale families.
TEST(ObservationBatteryTest, DifferentialPaperGenerator) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    GeneratorParams params;
    params.num_nodes = 300;
    params.avg_out_degree = 5;
    params.locality = 60;
    params.seed = seed;
    const Digraph dag =
        Condensed(Digraph(params.num_nodes, GenerateDag(params)));
    EXPECT_GT(ExpectExactOnAllPairs(dag, "generator seed " +
                                             std::to_string(seed)),
              0);
  }
}

TEST(ObservationBatteryTest, DifferentialAllScaleFamilies) {
  int64_t searched = 0;
  for (const ScaleFamily family : kAllScaleFamilies) {
    ScaleGraphParams params;
    params.family = family;
    params.num_nodes = 400;
    params.width = 16;
    params.degree = 3;
    params.locality = 32;
    params.seed = 12;
    const Digraph dag =
        Condensed(Digraph(params.num_nodes, ScaleArcList(params)));
    searched += ExpectExactOnAllPairs(dag, ScaleFamilyName(family));
  }
  EXPECT_GT(searched, 0);
}

// Cyclic input through the serving stack: the search core is built on the
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

  auto service =
      ReachService::Build(arcs, params.num_nodes, SearchCoreOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service.value()->condensed());
  ASSERT_EQ(service.value()->core().backend, ReachBackend::kLabels);
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().reachable, OracleReaches(closure, u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

// The acceptance sweep: across 50 seeds, the search core (the words and
// the search) must give bit-identical answers to the chain core (exact
// labels, neither words nor search) on the same traffic.
TEST(ObservationBatteryTest, BatteryOnOffBitIdenticalAcross50Seeds) {
  ReachServiceOptions chain_options;
  chain_options.index.backend = ReachBackend::kChain;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    GeneratorParams params;
    params.num_nodes = 150 + static_cast<NodeId>(seed % 7) * 20;
    params.avg_out_degree = 3 + static_cast<int32_t>(seed % 4);
    params.locality = 40;
    params.seed = seed;
    const ArcList arcs = GenerateDag(params);

    auto off = ReachService::Build(arcs, params.num_nodes, chain_options);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    auto on = ReachService::Build(arcs, params.num_nodes, SearchCoreOptions());
    ASSERT_TRUE(on.ok()) << on.status().ToString();

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

// The roots are a pure function of the DAG: the 64 nodes of largest
// (in-degree + 1) * (out-degree + 1), ties to the smaller id, in that
// order; two builds pick the same roots and the same words.
TEST(ObservationBatteryTest, PivotSelectionIsDeterministic) {
  GeneratorParams params;
  params.num_nodes = 400;
  params.avg_out_degree = 5;
  params.locality = 80;
  params.seed = 6;
  const Digraph dag =
      Condensed(Digraph(params.num_nodes, GenerateDag(params)));
  const NodeId n = dag.NumNodes();
  std::vector<int64_t> in_degree(static_cast<size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId s : dag.Successors(v)) ++in_degree[s];
  }
  std::vector<NodeId> ranked(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) ranked[v] = v;
  std::stable_sort(ranked.begin(), ranked.end(), [&](NodeId a, NodeId b) {
    return (in_degree[a] + 1) * (dag.OutDegree(a) + 1) >
           (in_degree[b] + 1) * (dag.OutDegree(b) + 1);
  });
  ranked.resize(ReachIndex::kNumRoots);

  const ReachIndex a = BuildIndexOrDie(dag);
  const ReachIndex b = BuildIndexOrDie(dag);
  EXPECT_EQ(a.roots(), ranked);
  EXPECT_EQ(b.roots(), ranked);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(a.anc(v), b.anc(v)) << v;
    ASSERT_EQ(a.desc(v), b.desc(v)) << v;
  }
}

// A kLabels image stores no words: the decoder rebuilds them, so the
// restored index has the same roots and the same words on every node,
// with and without cycles in the input, and re-serializes to the same
// bytes.
TEST(ObservationBatteryTest, SerializationRoundTrip) {
  GeneratorParams params;
  params.num_nodes = 250;
  params.avg_out_degree = 4;
  params.locality = 50;
  params.seed = 8;
  for (const bool cyclic : {false, true}) {
    SCOPED_TRACE(cyclic);
    ArcList arcs = GenerateDag(params);
    if (cyclic) {
      arcs.push_back({200, 10});
      arcs.push_back({249, 0});
    }
    auto built =
        ReachCore::Build(arcs, params.num_nodes, SearchCoreOptions().index);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ReachCore& core = *built.value();
    ASSERT_EQ(core.condensed(), cyclic);

    std::string image;
    core.SerializeAppend(&image);
    codec::Reader reader(image.data(), image.size());
    auto restored = ReachCore::Deserialize(&reader);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(reader.remaining(), 0u);
    const ReachIndex& index = restored.value()->index;
    ASSERT_EQ(restored.value()->backend, ReachBackend::kLabels);
    ASSERT_EQ(index.num_nodes(), core.index.num_nodes());
    EXPECT_EQ(index.roots(), core.index.roots());
    for (NodeId v = 0; v < index.num_nodes(); ++v) {
      ASSERT_EQ(index.anc(v), core.index.anc(v)) << v;
      ASSERT_EQ(index.desc(v), core.index.desc(v)) << v;
    }
    std::string image2;
    restored.value()->SerializeAppend(&image2);
    EXPECT_EQ(image, image2);
  }
}

// Every rung of the search core shows up in the service ladder on uniform
// traffic — the id test, both kinds of word test and the search — and the
// rule counters sum to queries.
TEST(ObservationBatteryTest, ServiceLadderAttribution) {
  GeneratorParams params;
  params.num_nodes = 500;
  params.avg_out_degree = 5;
  params.locality = 100;
  params.seed = 13;
  const ArcList arcs = GenerateDag(params);

  auto service =
      ReachService::Build(arcs, params.num_nodes, SearchCoreOptions());
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
  EXPECT_GT(stats.Decided(ReachStage::kTopoNegative), 0);
  EXPECT_GT(stats.Decided(ReachStage::kSupportivePositive), 0);
  EXPECT_GT(stats.Decided(ReachStage::kSupportiveNegative), 0);
  EXPECT_GT(stats.Decided(ReachStage::kPrunedBfs), 0);
  int64_t rule_total = 0;
  int64_t word_rules = 0;
  for (int r = 0; r < kNumReachRules; ++r) {
    rule_total += stats.rule_decided[r];
    if (DecidedByWords(static_cast<ReachRule>(r))) {
      word_rules += stats.rule_decided[r];
    }
  }
  EXPECT_EQ(rule_total, stats.queries);
  EXPECT_EQ(word_rules, stats.Decided(ReachStage::kSupportivePositive) +
                            stats.Decided(ReachStage::kSupportiveNegative));
}

// ReachCore::Decide is the one O(1) decision: the adversarial miner's
// probe is exactly "Decide is not unknown", and the service ladder
// searches exactly the pairs Decide leaves unknown, answering the rest
// with Decide's verdict and rule. Checked on every pair of a small
// cyclic graph.
TEST(ObservationBatteryTest, LadderProbeIsCoreDecide) {
  GeneratorParams params;
  params.num_nodes = 300;
  params.avg_out_degree = 5;
  params.locality = 100;
  params.seed = 8;
  ArcList arcs = GenerateDag(params);
  arcs.push_back({250, 40});
  arcs.push_back({299, 120});

  ReachServiceOptions options = SearchCoreOptions();
  options.cache_capacity = 0;
  auto built = ReachCore::Build(arcs, params.num_nodes, options.index);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ReachCore& core = *built.value();
  ASSERT_TRUE(core.condensed());
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

// Bit i of anc[v] is set exactly when v reaches root i, and bit i of
// desc[v] exactly when root i reaches v, by a BFS from and to each root:
// on every catalog family and on the two cyclic inputs of
// BackendChoiceTest.CyclicInputsAllPairs, through the condensation.
TEST(ObservationBatteryTest, WordsAreTheRootCones) {
  std::vector<std::pair<std::string, Digraph>> inputs;
  for (const char* family : {"G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
                             "G9", "G10", "G11", "G12"}) {
    const GeneratorParams params = CatalogParams(FamilyByName(family), 0);
    inputs.emplace_back(family, Digraph(params.num_nodes, GenerateDag(params)));
  }
  for (const GeneratorParams& params :
       {GeneratorParams{400, 50, 400, 3}, GeneratorParams{400, 3, 40, 5}}) {
    inputs.emplace_back(
        "cyclic F=" + std::to_string(params.avg_out_degree),
        Digraph(params.num_nodes, GenerateCyclicDigraph(params, 30)));
  }
  for (const auto& [name, graph] : inputs) {
    SCOPED_TRACE(name);
    const Digraph dag = Condensed(graph);
    const Digraph reversed = dag.Reversed();
    const ReachIndex index = BuildIndexOrDie(dag);
    ASSERT_EQ(static_cast<int>(index.roots().size()),
              std::min<int>(ReachIndex::kNumRoots, dag.NumNodes()));
    // The cone of `root` over `g`, by BFS.
    const auto cone = [&](const Digraph& g, NodeId root) {
      std::vector<bool> seen(static_cast<size_t>(g.NumNodes()), false);
      std::vector<NodeId> queue = {root};
      seen[root] = true;
      for (size_t head = 0; head < queue.size(); ++head) {
        for (const NodeId s : g.Successors(queue[head])) {
          if (!seen[s]) {
            seen[s] = true;
            queue.push_back(s);
          }
        }
      }
      return seen;
    };
    for (size_t i = 0; i < index.roots().size(); ++i) {
      const std::vector<bool> reached = cone(dag, index.roots()[i]);
      const std::vector<bool> reaching = cone(reversed, index.roots()[i]);
      for (NodeId v = 0; v < dag.NumNodes(); ++v) {
        ASSERT_EQ(((index.desc(v) >> i) & 1) != 0, reached[v])
            << "root " << i << " v=" << v;
        ASSERT_EQ(((index.anc(v) >> i) & 1) != 0, reaching[v])
            << "root " << i << " v=" << v;
      }
    }
  }
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
// input, so the node map outgrows the condensation.
std::shared_ptr<const ReachCore> CyclicLabelCore() {
  const GeneratorParams params{60, 3, 20, 2};
  ArcList arcs = GenerateDag(params);
  arcs.push_back({50, 10});
  ReachIndexOptions options;
  options.backend = ReachBackend::kLabels;
  auto core = ReachCore::Build(arcs, params.num_nodes, options);
  TCDB_CHECK(core.ok()) << core.status().ToString();
  TCDB_CHECK(core.value()->condensed());
  return core.value();
}

// A small kChain core.
std::shared_ptr<const ReachCore> SmallChainCore() {
  const GeneratorParams params{40, 3, 10, 4};
  ReachIndexOptions options;
  options.backend = ReachBackend::kChain;
  auto core = ReachCore::Build(GenerateDag(params), params.num_nodes, options);
  TCDB_CHECK(core.ok()) << core.status().ToString();
  return core.value();
}

// Every count field of a small valid image, inflated past the bytes the
// image has left, is refused before anything is sized from it.
TEST(ReachCoreImageTest, InflatedCountsExceedImage) {
  std::string image;
  CyclicLabelCore()->SerializeAppend(&image);
  ASSERT_TRUE(DecodeCore(image).ok());

  // Offsets from the layout of ReachCore::SerializeAppend.
  struct Field {
    const char* name;
    size_t offset;
    int width;
  };
  const Field fields[] = {
      {"input node count", 4, 4},
      {"condensed node count", 9, 4},
      {"arc count", 13, 8},
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
  CyclicLabelCore()->SerializeAppend(&labels);
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

// Images of earlier layouts are refused, never misread: one with no
// layout tag (the label index followed by a battery flag byte), and one
// with layout tag 2 (the label arrays after the SCC sizes).
TEST(ReachCoreImageTest, PreviousLayoutIsRejected) {
  // The path 0 -> 1 -> 2 as the layout-2 encoder wrote it, from the
  // input node count on.
  std::string body;
  codec::PutI32(&body, 3);  // input nodes
  codec::PutU8(&body, static_cast<uint8_t>(ReachBackend::kLabels));
  codec::PutI32(&body, 3);  // condensed nodes
  codec::PutU64(&body, 2);  // arcs
  for (const int32_t endpoint : {0, 1, 1, 2}) codec::PutI32(&body, endpoint);
  for (const int32_t component : {0, 1, 2}) {
    codec::PutI32(&body, component);  // node map
  }
  for (int i = 0; i < 3; ++i) codec::PutI32(&body, 1);  // SCC sizes
  codec::PutU32(&body, 3);  // index nodes
  // topo pos, max reach, min origin, pre, post, chain id, chain pos.
  const int32_t labels[7][3] = {{0, 1, 2}, {2, 2, 2}, {0, 0, 0}, {0, 1, 2},
                                {5, 4, 3}, {0, 0, 0}, {0, 1, 2}};
  for (const auto& array : labels) {
    for (const int32_t label : array) codec::PutI32(&body, label);
  }
  codec::PutI32(&body, 1);  // chains
  codec::PutU32(&body, 0);  // pivots

  std::vector<std::string> images;
  for (const uint8_t battery : {0, 1}) {
    images.push_back(body);
    codec::PutU8(&images.back(), battery);
  }
  std::string tagged;
  codec::PutU32(&tagged, 0x80000000u | 2);
  images.push_back(tagged + body);
  for (const std::string& image : images) {
    const Status status = DecodeCore(image);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
  }
}

// Every proper prefix of a small label image and of a small chain image is
// Corruption.
TEST(ReachCoreImageTest, EveryTruncationIsCorruption) {
  for (const std::shared_ptr<const ReachCore>& core :
       {CyclicLabelCore(), SmallChainCore()}) {
    std::string image;
    core->SerializeAppend(&image);
    ASSERT_TRUE(DecodeCore(image).ok());
    for (size_t keep = 0; keep < image.size(); ++keep) {
      EXPECT_EQ(DecodeCore(image.substr(0, keep)).code(),
                StatusCode::kCorruption)
          << "a " << keep << "-byte prefix of " << image.size();
    }
  }
}

// Deserialize(SerializeAppend(core)) re-encodes to the same bytes and
// decides every pair of instance 0 of every catalog family with the same
// verdict and rule, on a pinned search core and on the kAuto core; a
// restored search core also has the same roots and words, so its search
// answers as the original's does.
TEST(ReachCoreImageTest, RoundTripReencodesAndAnswersAlike) {
  for (const char* family : {"G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
                             "G9", "G10", "G11", "G12"}) {
    const GeneratorParams params = CatalogParams(FamilyByName(family), 0);
    const ArcList arcs = GenerateDag(params);
    for (const ReachBackend backend :
         {ReachBackend::kLabels, ReachBackend::kAuto}) {
      ReachIndexOptions options;
      options.backend = backend;
      auto built = ReachCore::Build(arcs, params.num_nodes, options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const ReachCore& core = *built.value();
      // kAuto builds the same search core as the pin on the wide families.
      if (backend == ReachBackend::kAuto &&
          core.backend == ReachBackend::kLabels) {
        continue;
      }
      SCOPED_TRACE(std::string(family) +
                   (core.backend == ReachBackend::kChain ? " chain"
                                                         : " labels"));
      std::string image;
      core.SerializeAppend(&image);
      codec::Reader reader(image.data(), image.size());
      auto restored = ReachCore::Deserialize(&reader);
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      std::string image2;
      restored.value()->SerializeAppend(&image2);
      ASSERT_EQ(image, image2);
      const ReachCore& copy = *restored.value();
      ASSERT_EQ(copy.backend, core.backend);
      EXPECT_EQ(copy.index.roots(), core.index.roots());
      for (NodeId v = 0; v < core.index.num_nodes(); ++v) {
        ASSERT_EQ(copy.index.anc(v), core.index.anc(v)) << v;
        ASSERT_EQ(copy.index.desc(v), core.index.desc(v)) << v;
      }
      for (NodeId u = 0; u < params.num_nodes; ++u) {
        for (NodeId v = 0; v < params.num_nodes; ++v) {
          ReachRule want = ReachRule::kCacheHit;
          ReachRule got = ReachRule::kCacheHit;
          const ReachIndex::Verdict verdict = core.Decide(u, v, &want);
          ASSERT_EQ(copy.Decide(u, v, &got), verdict)
              << "u=" << u << " v=" << v;
          if (verdict != ReachIndex::Verdict::kUnknown) {
            ASSERT_EQ(got, want) << "u=" << u << " v=" << v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tcdb

// Full determinism: identical configuration must give bit-identical
// metrics and answers for every algorithm, including the random
// replacement policy (fixed seed) and HYB's blocking. Reproducibility is a
// precondition for every number in EXPERIMENTS.md.

#include <gtest/gtest.h>

#include <cctype>
#include <utility>
#include <vector>

#include "core/database.h"
#include "graph/generator.h"
#include "reach/reach_server.h"
#include "util/random.h"

namespace tcdb {
namespace {

class DeterminismTest : public testing::TestWithParam<Algorithm> {};

TEST_P(DeterminismTest, RepeatedRunsAreBitIdentical) {
  const GeneratorParams params{250, 5, 60, 31};
  auto db = TcDatabase::Create(GenerateDag(params), params.num_nodes);
  ASSERT_TRUE(db.ok());
  const QuerySpec query =
      QuerySpec::Partial(SampleSourceNodes(params.num_nodes, 6, 8));

  for (const PagePolicy policy : {PagePolicy::kLru, PagePolicy::kRandom}) {
    ExecOptions options;
    options.buffer_pages = 8;
    options.page_policy = policy;
    options.ilimit = 0.3;
    options.capture_answer = true;
    auto first = db.value()->Execute(GetParam(), query, options);
    auto second = db.value()->Execute(GetParam(), query, options);
    ASSERT_TRUE(first.ok()) << AlgorithmName(GetParam());
    ASSERT_TRUE(second.ok());
    const RunMetrics& a = first.value().metrics;
    const RunMetrics& b = second.value().metrics;
    EXPECT_EQ(a.restructure_reads, b.restructure_reads);
    EXPECT_EQ(a.restructure_writes, b.restructure_writes);
    EXPECT_EQ(a.compute_reads, b.compute_reads);
    EXPECT_EQ(a.compute_writes, b.compute_writes);
    EXPECT_EQ(a.compute_list_hits, b.compute_list_hits);
    EXPECT_EQ(a.compute_list_misses, b.compute_list_misses);
    EXPECT_EQ(a.arcs_processed, b.arcs_processed);
    EXPECT_EQ(a.arcs_marked, b.arcs_marked);
    EXPECT_EQ(a.list_unions, b.list_unions);
    EXPECT_EQ(a.tuples_generated, b.tuples_generated);
    EXPECT_EQ(a.tuples_inserted, b.tuples_inserted);
    EXPECT_EQ(a.distinct_tuples, b.distinct_tuples);
    EXPECT_EQ(a.selected_tuples, b.selected_tuples);
    EXPECT_EQ(a.unmarked_locality_sum, b.unmarked_locality_sum);
    EXPECT_EQ(a.lists_read, b.lists_read);
    EXPECT_EQ(a.entries_read, b.entries_read);
    EXPECT_EQ(a.entries_written, b.entries_written);
    EXPECT_EQ(first.value().answer, second.value().answer);
  }
}

// A deterministic clock: each reading advances exactly one millisecond.
// Injected into both serving stacks so latency attribution (the seconds[]
// stats) is identical readings, not wall time.
std::function<double()> MakeTickClock() {
  return [t = 0.0]() mutable {
    t += 0.001;
    return t;
  };
}

// A single-shard ReachServer is the sequential ReachService behind a
// queue: same batched calls in the same order, so answers, stage
// attribution, and the full ReachStats block (tick-clock seconds
// included) must be bit-identical to driving the service directly.
TEST(ReachServingDeterminismTest, SingleShardServerMatchesDirectService) {
  const GeneratorParams params{400, 5, 100, 91};
  const ArcList arcs = GenerateDag(params);

  // The label ladder, pinned: its stages, searches and cache are what the
  // two sides must attribute identically.
  ReachServiceOptions service_options;
  service_options.index.backend = ReachBackend::kLabels;
  auto service = ReachService::Build(arcs, params.num_nodes, service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service.value()->SetClockForTesting(MakeTickClock());

  ReachServerOptions options;
  options.num_shards = 1;
  options.service = service_options;
  auto server = ReachServer::Start(arcs, params.num_nodes, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->SetClockForTesting(MakeTickClock);

  Rng rng(17);
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::pair<NodeId, NodeId>> queries;
    for (int i = 0; i < 40; ++i) {
      queries.emplace_back(
          static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)),
          static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1)));
    }
    auto direct = service.value()->QueryBatch(queries);
    auto served = server.value()->QueryBatch(queries);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(direct.value().size(), served.value().size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(direct.value()[i].reachable, served.value()[i].reachable);
      EXPECT_EQ(direct.value()[i].stage, served.value()[i].stage);
    }
  }

  const ReachStats& direct_stats = service.value()->stats();
  const ReachServerStats snapshot = server.value()->Snapshot();
  const ReachStats& served_stats = snapshot.merged;
  EXPECT_EQ(direct_stats.queries, served_stats.queries);
  EXPECT_EQ(direct_stats.batches, served_stats.batches);
  EXPECT_EQ(direct_stats.positive_answers, served_stats.positive_answers);
  EXPECT_EQ(direct_stats.cache_insertions, served_stats.cache_insertions);
  EXPECT_EQ(direct_stats.bfs_expansions, served_stats.bfs_expansions);
  for (int s = 0; s < kNumReachStages; ++s) {
    EXPECT_EQ(direct_stats.decided[s], served_stats.decided[s]) << s;
    // Bit-identical, not approximately equal: both sides read the same
    // injected tick sequence.
    EXPECT_EQ(direct_stats.seconds[s], served_stats.seconds[s]) << s;
  }
  EXPECT_EQ(snapshot.latency.count(), served_stats.queries);
}

// Single queries take the same two halves on both sides (label pass,
// then the residue step with its one fallback routine), so a one-shard
// server's Query replays ReachService::Query call by call and tick by
// tick: the same answers, stages, search expansions and seconds, and
// neither counts a batch.
TEST(ReachServingDeterminismTest, SingleShardServerQueryMatchesDirectQuery) {
  const GeneratorParams params{400, 5, 100, 93};
  const ArcList arcs = GenerateDag(params);

  ReachServiceOptions service_options;
  service_options.index.backend = ReachBackend::kLabels;
  service_options.bfs_budget = 8;  // both search rungs run
  auto service = ReachService::Build(arcs, params.num_nodes, service_options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  service.value()->SetClockForTesting(MakeTickClock());

  ReachServerOptions options;
  options.num_shards = 1;
  options.service = service_options;
  auto server = ReachServer::Start(arcs, params.num_nodes, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  server.value()->SetClockForTesting(MakeTickClock);

  Rng rng(19);
  for (int i = 0; i < 800; ++i) {
    const auto u = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    const auto v = static_cast<NodeId>(rng.Uniform(0, params.num_nodes - 1));
    auto direct = service.value()->Query(u, v);
    auto served = server.value()->Query(u, v);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(direct.value().reachable, served.value().reachable);
    EXPECT_EQ(direct.value().stage, served.value().stage);
  }

  const ReachStats& direct_stats = service.value()->stats();
  const ReachStats served_stats = server.value()->Snapshot().merged;
  EXPECT_GT(direct_stats.Decided(ReachStage::kPrunedBfs), 0);
  EXPECT_GT(direct_stats.bfs_expansions, 0);
  EXPECT_EQ(direct_stats.batches, 0);
  EXPECT_EQ(served_stats.batches, 0);
  EXPECT_EQ(direct_stats.queries, served_stats.queries);
  EXPECT_EQ(direct_stats.positive_answers, served_stats.positive_answers);
  EXPECT_EQ(direct_stats.cache_insertions, served_stats.cache_insertions);
  EXPECT_EQ(direct_stats.bfs_expansions, served_stats.bfs_expansions);
  for (int s = 0; s < kNumReachStages; ++s) {
    EXPECT_EQ(direct_stats.decided[s], served_stats.decided[s]) << s;
    EXPECT_EQ(direct_stats.seconds[s], served_stats.seconds[s]) << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DeterminismTest,
    testing::Values(Algorithm::kBtc, Algorithm::kHyb, Algorithm::kBj,
                    Algorithm::kSrch, Algorithm::kSpn, Algorithm::kJkb,
                    Algorithm::kJkb2, Algorithm::kSeminaive,
                    Algorithm::kWarshall, Algorithm::kWarren,
                    Algorithm::kWarrenBlocked),
    [](const testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcdb

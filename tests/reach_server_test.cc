// Concurrency tests for the sharded ReachServer (ctest label:
// `concurrency`; check.sh reruns this binary under ThreadSanitizer).
// Multi-threaded clients are cross-checked differentially against the
// sequential ReferenceClosure oracle; shutdown and the merge-on-read
// stats snapshot get dedicated races.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generator.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "util/random.h"

namespace tcdb {
namespace {

ReachServerOptions WithShards(int32_t num_shards) {
  ReachServerOptions options;
  options.num_shards = num_shards;
  return options;
}

bool OracleReaches(const std::vector<std::vector<NodeId>>& closure, NodeId u,
                   NodeId v) {
  if (u == v) return true;
  return std::binary_search(closure[u].begin(), closure[u].end(), v);
}

std::vector<std::pair<NodeId, NodeId>> MakeQueries(NodeId num_nodes,
                                                   int count, uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    queries.emplace_back(static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)),
                         static_cast<NodeId>(rng.Uniform(0, num_nodes - 1)));
  }
  return queries;
}

// Every client thread fires batches at the server and diffs each answer
// against the oracle closure of the *input* graph (so the cyclic case also
// checks the condensation path end to end).
void RunDifferential(const ArcList& arcs, NodeId num_nodes,
                     int32_t num_shards) {
  const Digraph graph(num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  ReachServerOptions options;
  options.num_shards = num_shards;
  auto server = ReachServer::Start(arcs, num_nodes, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 12;
  constexpr int kBatchSize = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int b = 0; b < kBatchesPerClient; ++b) {
        const auto queries = MakeQueries(
            num_nodes, kBatchSize, 1000 + 97 * c + static_cast<uint64_t>(b));
        auto answers = server.value()->QueryBatch(queries);
        if (!answers.ok() || answers.value().size() != queries.size()) {
          mismatches.fetch_add(1000);
          return;
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          const auto& [u, v] = queries[i];
          if (answers.value()[i].reachable != OracleReaches(closure, u, v)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Stats-merge consistency: the merged snapshot accounts for every query
  // exactly once, the per-shard split sums to it, and the latency
  // histogram saw one sample per query.
  const ReachServerStats stats = server.value()->Snapshot();
  const int64_t expected =
      int64_t{kClients} * kBatchesPerClient * kBatchSize;
  EXPECT_EQ(stats.merged.queries, expected);
  ASSERT_EQ(stats.per_shard.size(), static_cast<size_t>(num_shards));
  int64_t shard_queries = 0;
  int64_t shard_positive = 0;
  for (const ReachStats& shard : stats.per_shard) {
    shard_queries += shard.queries;
    shard_positive += shard.positive_answers;
  }
  EXPECT_EQ(shard_queries, stats.merged.queries);
  EXPECT_EQ(shard_positive, stats.merged.positive_answers);
  EXPECT_EQ(stats.latency.count(), expected);
}

TEST(ReachServerTest, ConcurrentBatchesMatchOracleAcyclic) {
  const ArcList arcs = GenerateDag({300, 5, 200, 11});
  RunDifferential(arcs, 300, 4);
}

TEST(ReachServerTest, ConcurrentBatchesMatchOracleCyclic) {
  const ArcList arcs = GenerateCyclicDigraph({300, 5, 200, 12}, 40);
  RunDifferential(arcs, 300, 3);
}

TEST(ReachServerTest, SingleQueriesFromManyThreads) {
  constexpr NodeId kNodes = 200;
  const ArcList arcs = GenerateDag({kNodes, 5, 50, 21});
  const std::vector<std::vector<NodeId>> closure =
      ReferenceClosure(Digraph(kNodes, arcs));
  auto server = ReachServer::Start(arcs, kNodes, WithShards(4));
  ASSERT_TRUE(server.ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      const auto queries = MakeQueries(kNodes, 200, 33 * (c + 1));
      for (const auto& [u, v] : queries) {
        auto answer = server.value()->Query(u, v);
        if (!answer.ok() ||
            answer.value().reachable != OracleReaches(closure, u, v)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.value()->Snapshot().merged.queries, 6 * 200);
}

TEST(ReachServerTest, StopUnderLoadDrainsWithoutHanging) {
  constexpr NodeId kNodes = 300;
  const ArcList arcs = GenerateDag({kNodes, 5, 200, 31});
  const std::vector<std::vector<NodeId>> closure =
      ReferenceClosure(Digraph(kNodes, arcs));

  ReachServerOptions options;
  options.num_shards = 2;
  auto server = ReachServer::Start(arcs, kNodes, options);
  ASSERT_TRUE(server.ok());

  // Clients hammer the server; each submission must either complete with
  // oracle-correct answers or be rejected with FailedPrecondition once
  // Stop lands — never hang, never return garbage.
  std::atomic<int> violations{0};
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int b = 0; b < 200; ++b) {
        const auto queries =
            MakeQueries(kNodes, 16, 500 + 11 * c + static_cast<uint64_t>(b));
        auto answers = server.value()->QueryBatch(queries);
        if (!answers.ok()) {
          if (answers.status().code() != StatusCode::kFailedPrecondition) {
            violations.fetch_add(1);
          }
          return;
        }
        accepted.fetch_add(static_cast<int64_t>(queries.size()));
        for (size_t i = 0; i < queries.size(); ++i) {
          const auto& [u, v] = queries[i];
          if (answers.value()[i].reachable != OracleReaches(closure, u, v)) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }
  // Let some traffic through, then stop while clients are mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.value()->Stop();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Accepted submissions were served, not dropped: the snapshot's merged
  // counter covers at least every batch that returned Ok. (Calls already
  // in flight when Stop landed may add more.)
  EXPECT_GE(server.value()->Snapshot().merged.queries, accepted.load());

  // Stop is idempotent, and post-stop traffic is cleanly rejected.
  server.value()->Stop();
  auto after = server.value()->Query(0, 1);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReachServerTest, SnapshotIsSafeDuringTraffic) {
  constexpr NodeId kNodes = 300;
  const ArcList arcs = GenerateDag({kNodes, 5, 200, 51});
  auto server = ReachServer::Start(arcs, kNodes, WithShards(3));
  ASSERT_TRUE(server.ok());

  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    int64_t last_queries = 0;
    while (!done.load()) {
      const ReachServerStats stats = server.value()->Snapshot();
      // Published counters are monotone: a later snapshot never loses
      // queries, and the per-shard split always sums to the merge.
      ASSERT_GE(stats.merged.queries, last_queries);
      last_queries = stats.merged.queries;
      int64_t shard_sum = 0;
      for (const ReachStats& shard : stats.per_shard) {
        shard_sum += shard.queries;
      }
      ASSERT_EQ(shard_sum, stats.merged.queries);
      std::this_thread::yield();
    }
  });

  const auto workload =
      MakeServingWorkload(Digraph(kNodes, arcs), 4000, 61);
  auto report = RunServingLoad(server.value().get(), workload,
                               /*num_clients=*/4, /*batch_size=*/32);
  done.store(true);
  snapshotter.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(server.value()->Snapshot().merged.queries, 4000);
}

TEST(ReachServerTest, RejectsInvalidArgumentsWithoutEnqueueing) {
  const ArcList arcs = GenerateDag({50, 5, 20, 71});
  auto server = ReachServer::Start(arcs, 50, WithShards(2));
  ASSERT_TRUE(server.ok());

  auto bad = server.value()->Query(-1, 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 1}, {4, 50}};
  auto batch = server.value()->QueryBatch(pairs);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  // Nothing reached a shard.
  EXPECT_EQ(server.value()->Snapshot().merged.queries, 0);

  // Bad server configurations fail Start instead of limping along.
  EXPECT_FALSE(ReachServer::Start(arcs, 50, WithShards(0)).ok());
}

TEST(ReachServerTest, RoutingIsStableAndCoversAllShards) {
  const ArcList arcs = GenerateDag({2000, 2, 200, 81});
  auto server = ReachServer::Start(arcs, 2000, WithShards(4));
  ASSERT_TRUE(server.ok());
  std::vector<int64_t> hits(4, 0);
  for (NodeId v = 0; v < 2000; ++v) {
    const int32_t shard = server.value()->ShardOf(v);
    ASSERT_EQ(shard, server.value()->ShardOf(v));  // stable
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    ++hits[static_cast<size_t>(shard)];
  }
  // splitmix64 routing spreads 2000 sources roughly evenly; a shard at
  // zero would mean the hash degenerated.
  for (const int64_t h : hits) EXPECT_GT(h, 2000 / 16);
}

// A call reads the current core through a per-thread copy. One thread
// alternating between servers over different graphs, and a server
// destroyed and replaced (possibly at the same address), must each
// answer from their own core.
TEST(ReachServerTest, OneThreadAlternatingServersReadsEachServersCore) {
  auto forward = ReachServer::Start(ArcList{{0, 1}}, 2, WithShards(2));
  auto backward = ReachServer::Start(ArcList{{1, 0}}, 2, WithShards(2));
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 1}, {1, 0}};
  for (int round = 0; round < 3; ++round) {
    auto f = forward.value()->QueryBatch(pairs);
    auto b = backward.value()->QueryBatch(pairs);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(f.value()[0].reachable);
    EXPECT_FALSE(f.value()[1].reachable);
    EXPECT_FALSE(b.value()[0].reachable);
    EXPECT_TRUE(b.value()[1].reachable);
    EXPECT_TRUE(forward.value()->Query(0, 1).value().reachable);
    EXPECT_FALSE(backward.value()->Query(0, 1).value().reachable);
  }

  for (int round = 0; round < 4; ++round) {
    const bool arc = round % 2 == 0;
    auto server = ReachServer::Start(arc ? ArcList{{0, 1}} : ArcList{}, 2,
                                     WithShards(1));
    ASSERT_TRUE(server.ok());
    EXPECT_EQ(server.value()->Query(0, 1).value().reachable, arc) << round;
  }
}

}  // namespace
}  // namespace tcdb

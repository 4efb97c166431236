// Concurrency tests for ReachServer and its per-thread lanes (ctest label:
// `concurrency`; check.sh reruns this binary under ThreadSanitizer).
// Multi-threaded clients are cross-checked differentially against the
// sequential ReferenceClosure oracle; shutdown, short-lived client
// threads and the merge-on-read stats snapshot get dedicated races.

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
void RunDifferential(const ArcList& arcs, NodeId num_nodes) {
  const Digraph graph(num_nodes, arcs);
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  auto server = ReachServer::Start(arcs, num_nodes);
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
  // exactly once, and the latency histogram saw one sample per query.
  const ReachServerStats stats = server.value()->Snapshot();
  const int64_t expected =
      int64_t{kClients} * kBatchesPerClient * kBatchSize;
  EXPECT_EQ(stats.merged.queries, expected);
  EXPECT_EQ(stats.merged.batches, int64_t{kClients} * kBatchesPerClient);
  EXPECT_EQ(stats.latency.count(), expected);
}

TEST(ReachServerTest, ConcurrentBatchesMatchOracleAcyclic) {
  const ArcList arcs = GenerateDag({300, 5, 200, 11});
  RunDifferential(arcs, 300);
}

TEST(ReachServerTest, ConcurrentBatchesMatchOracleCyclic) {
  const ArcList arcs = GenerateCyclicDigraph({300, 5, 200, 12}, 40);
  RunDifferential(arcs, 300);
}

TEST(ReachServerTest, SingleQueriesFromManyThreads) {
  constexpr NodeId kNodes = 200;
  const ArcList arcs = GenerateDag({kNodes, 5, 50, 21});
  const std::vector<std::vector<NodeId>> closure =
      ReferenceClosure(Digraph(kNodes, arcs));
  auto server = ReachServer::Start(arcs, kNodes);
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

  auto server = ReachServer::Start(arcs, kNodes);
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
  auto server = ReachServer::Start(arcs, kNodes);
  ASSERT_TRUE(server.ok());

  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    int64_t last_queries = 0;
    while (!done.load()) {
      const ReachServerStats stats = server.value()->Snapshot();
      // Published counters are monotone: a later snapshot never loses
      // queries.
      ASSERT_GE(stats.merged.queries, last_queries);
      last_queries = stats.merged.queries;
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
  auto server = ReachServer::Start(arcs, 50);
  ASSERT_TRUE(server.ok());

  auto bad = server.value()->Query(-1, 3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 1}, {4, 50}};
  auto batch = server.value()->QueryBatch(pairs);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  // Nothing reached a lane.
  EXPECT_EQ(server.value()->Snapshot().merged.queries, 0);
}

// Each client thread lives for one batch, eight at a time: every call
// registers or inherits a lane, and a lane of an exited thread is reused
// only by a later thread with the same id. The merged snapshot still
// counts every query and every latency sample exactly once.
TEST(ReachServerTest, ShortLivedThreadsAreCountedExactly) {
  constexpr NodeId kNodes = 300;
  const ArcList arcs = GenerateDag({kNodes, 5, 200, 91});
  const std::vector<std::vector<NodeId>> closure =
      ReferenceClosure(Digraph(kNodes, arcs));
  auto server = ReachServer::Start(arcs, kNodes);
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 64;
  constexpr int kAtOnce = 8;
  constexpr int kBatchSize = 32;
  std::atomic<int> mismatches{0};
  for (int wave = 0; wave < kThreads / kAtOnce; ++wave) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kAtOnce; ++c) {
      const uint64_t seed = 7000 + static_cast<uint64_t>(wave * kAtOnce + c);
      clients.emplace_back([&, seed] {
        const auto queries = MakeQueries(kNodes, kBatchSize, seed);
        auto answers = server.value()->QueryBatch(queries);
        if (!answers.ok()) {
          mismatches.fetch_add(1000);
          return;
        }
        for (size_t i = 0; i < queries.size(); ++i) {
          const auto& [u, v] = queries[i];
          if (answers.value()[i].reachable != OracleReaches(closure, u, v)) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  const ReachServerStats stats = server.value()->Snapshot();
  EXPECT_EQ(stats.merged.queries, int64_t{kThreads} * kBatchSize);
  EXPECT_EQ(stats.merged.batches, kThreads);
  EXPECT_EQ(stats.latency.count(), int64_t{kThreads} * kBatchSize);
}

// A call reads the current core and its lane through a per-thread copy.
// One thread alternating between servers over different graphs, and a
// server destroyed and replaced (possibly at the same address), must each
// answer from their own core and count only their own queries.
TEST(ReachServerTest, OneThreadAlternatingServersReadsEachServersCore) {
  auto forward = ReachServer::Start(ArcList{{0, 1}}, 2);
  auto backward = ReachServer::Start(ArcList{{1, 0}}, 2);
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
  // Three rounds of one two-pair batch and one single query per server,
  // and one more query on `backward`: each snapshot counts its own server's
  // calls only, although one thread made them all.
  EXPECT_TRUE(backward.value()->Query(1, 0).value().reachable);
  const ReachServerStats f_stats = forward.value()->Snapshot();
  const ReachServerStats b_stats = backward.value()->Snapshot();
  EXPECT_EQ(f_stats.merged.queries, 3 * 3);
  EXPECT_EQ(f_stats.merged.batches, 3);
  EXPECT_EQ(f_stats.merged.positive_answers, 3 * 2);
  EXPECT_EQ(f_stats.latency.count(), 3 * 3);
  EXPECT_EQ(b_stats.merged.queries, 3 * 3 + 1);
  EXPECT_EQ(b_stats.merged.batches, 3);
  EXPECT_EQ(b_stats.merged.positive_answers, 3 + 1);
  EXPECT_EQ(b_stats.latency.count(), 3 * 3 + 1);

  for (int round = 0; round < 4; ++round) {
    const bool arc = round % 2 == 0;
    auto server = ReachServer::Start(arc ? ArcList{{0, 1}} : ArcList{}, 2);
    ASSERT_TRUE(server.ok());
    EXPECT_EQ(server.value()->Query(0, 1).value().reachable, arc) << round;
    EXPECT_EQ(server.value()->Snapshot().merged.queries, 1) << round;
  }
}

}  // namespace
}  // namespace tcdb

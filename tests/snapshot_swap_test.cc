// Epoch-based snapshot-swap tests (ctest labels: `dynamic` and
// `concurrency`; check.sh reruns this binary under ThreadSanitizer).
// Covers ReachServer::SwapCore validation and hot-swap under concurrent
// client traffic (per-pair answer monotonicity across a chain of
// insert-only cores, through Query and through batches spanning shards;
// zero stale-cache answers after a swap) plus the IndexRebuilder
// publishing into a DynamicReachService while the owner thread mutates
// and queries, and a failed background rebuild that leaves it serving.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/index_rebuilder.h"
#include "dynamic/mutation_log.h"
#include "dynamic/reference_graph.h"
#include "graph/digraph.h"
#include "reach/reach_server.h"
#include "util/random.h"

namespace tcdb {
namespace {

std::shared_ptr<const ReachCore> MustBuild(const ArcList& arcs, NodeId n) {
  auto core = ReachCore::Build(arcs, n);
  TCDB_CHECK(core.ok()) << core.status().ToString();
  return core.value();
}

TEST(SwapCoreTest, ValidatesCoreAndEpoch) {
  const ArcList arcs = {{0, 1}};
  auto server = ReachServer::Start(arcs, 3);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server.value()->SwapCore(nullptr, 1).code(),
            StatusCode::kInvalidArgument);
  // A core over a different input-node universe is rejected.
  EXPECT_EQ(server.value()->SwapCore(MustBuild({{0, 1}}, 5), 1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.value()->SwapCore(MustBuild(arcs, 3), 4).ok());
  EXPECT_EQ(server.value()->published_epoch(), 4);
  // Epochs must not decrease across swaps; equal epochs republish fine.
  EXPECT_EQ(server.value()->SwapCore(MustBuild(arcs, 3), 3).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.value()->SwapCore(MustBuild(arcs, 3), 4).ok());
  const ReachServerStats stats = server.value()->Snapshot();
  EXPECT_EQ(stats.core_swaps, 2);
  EXPECT_EQ(stats.published_epoch, 4);
}

TEST(SwapCoreTest, WorkersAdoptSwappedCoreAndDropStaleCache) {
  // One shard so the cached answer and the follow-up query meet the same
  // service. (0, 2) is NO in the starting core; the swapped core closes
  // the chain. The second query must see the swap, not the cached NO.
  ReachServerOptions options;
  options.num_shards = 1;
  const ArcList before = {{0, 1}};
  const ArcList after = {{0, 1}, {1, 2}};
  auto server = ReachServer::Start(before, 3, options);
  ASSERT_TRUE(server.ok());

  auto first = server.value()->Query(0, 2);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().reachable);
  // Warm the cache with the stale answer.
  ASSERT_TRUE(server.value()->Query(0, 2).ok());

  ASSERT_TRUE(server.value()->SwapCore(MustBuild(after, 3), 1).ok());
  auto second = server.value()->Query(0, 2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().reachable);
  EXPECT_NE(second.value().stage, ReachStage::kCache);
}

// A chain of insert-only cores G_0 subset ... subset G_7 over 120 nodes:
// core i contains the chain prefix 0 -> 1 -> ... -> (7 * i), plus a
// static random background on the upper half so the index has something
// to chew on.
constexpr NodeId kChainNodes = 120;
constexpr int kChainCores = 8;
constexpr int kChainStep = 7;

std::vector<std::shared_ptr<const ReachCore>> ChainOfCores() {
  ArcList background;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const NodeId u = static_cast<NodeId>(
        rng.Uniform(kChainNodes / 2, kChainNodes - 1));
    const NodeId v = static_cast<NodeId>(
        rng.Uniform(kChainNodes / 2, kChainNodes - 1));
    if (u != v) background.push_back(Arc{u, v});
  }
  std::vector<std::shared_ptr<const ReachCore>> cores;
  ArcList arcs = background;
  for (int i = 0; i < kChainCores; ++i) {
    if (i > 0) {
      for (int j = (i - 1) * kChainStep; j < i * kChainStep; ++j) {
        arcs.push_back(Arc{static_cast<NodeId>(j),
                           static_cast<NodeId>(j + 1)});
      }
    }
    cores.push_back(MustBuild(arcs, kChainNodes));
  }
  return cores;
}

// Hot swap under load. The chain of cores is published with increasing
// epochs while client threads hammer fixed probe pairs. Each thread loads
// the publication slot afresh per call and never sees it go backwards,
// and a shard never serves a residue against an older core than the
// caller's, so the per-pair answer stream each thread observes must be
// monotone: once YES, never NO again. After the final swap every pair is
// YES — a NO would be an answer from a retired epoch.
TEST(SwapCoreTest, SwapUnderLoadIsMonotoneWithoutStaleAnswers) {
  constexpr int kCores = kChainCores;
  constexpr int kClients = 4;
  constexpr int kStep = kChainStep;
  const std::vector<std::shared_ptr<const ReachCore>> cores = ChainOfCores();

  ReachServerOptions options;
  options.num_shards = 3;
  auto server = ReachServer::Start(cores[0], options);
  ASSERT_TRUE(server.ok());

  // Probe pairs along the chain: NO in core 0, YES in the final core.
  std::vector<std::pair<NodeId, NodeId>> probes;
  for (int j = 1; j < (kCores - 1) * kStep; j += 3) {
    probes.emplace_back(0, static_cast<NodeId>(j));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      // Per-thread latch per probe: per-shard adoption order makes the
      // answer stream each thread observes monotone.
      std::vector<bool> seen_yes(probes.size(), false);
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t p = 0; p < probes.size(); ++p) {
          auto answer = server.value()->Query(probes[p].first,
                                              probes[p].second);
          if (!answer.ok()) {
            violations.fetch_add(1000);
            return;
          }
          if (answer.value().reachable) {
            seen_yes[p] = true;
          } else if (seen_yes[p]) {
            violations.fetch_add(1);  // YES regressed to NO: stale epoch
          }
        }
      }
    });
  }

  for (int i = 1; i < kCores; ++i) {
    ASSERT_TRUE(server.value()->SwapCore(cores[i], i).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Post-swap queries must all reflect the final core: its chain reaches
  // every probe target.
  for (const auto& [u, v] : probes) {
    auto answer = server.value()->Query(u, v);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer.value().reachable) << u << " -> " << v;
  }
  const ReachServerStats stats = server.value()->Snapshot();
  EXPECT_EQ(stats.core_swaps, kCores - 1);
  EXPECT_EQ(stats.published_epoch, kCores - 1);
}

// The same swap chain through QueryBatch: batches whose sources route to
// different shards of a 3-shard server, issued back to back so they
// straddle the swaps. Per client thread and pair the answers must be
// monotone, and once the last swap is published every answer must match
// the final core.
TEST(SwapCoreTest, BatchSwapUnderLoadIsMonotoneWithoutStaleAnswers) {
  constexpr int kClients = 4;
  constexpr size_t kBatch = 16;
  const std::vector<std::shared_ptr<const ReachCore>> cores = ChainOfCores();

  ReachServerOptions options;
  options.num_shards = 3;
  auto server = ReachServer::Start(cores[0], options);
  ASSERT_TRUE(server.ok());

  // Chain pairs (s, t), s < t: NO in core 0, YES in the final core,
  // whose chain covers 0 .. 49.
  std::vector<std::pair<NodeId, NodeId>> probes;
  std::unordered_set<int32_t> shards;
  for (NodeId s = 0; s < 6; ++s) {
    shards.insert(server.value()->ShardOf(s));
    for (NodeId t = s + 1; t < (kChainCores - 1) * kChainStep; t += 4) {
      probes.emplace_back(s, t);
    }
  }
  ASSERT_GT(shards.size(), 1u);  // the batches really span shards

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<bool> seen_yes(probes.size(), false);
      // Each thread starts its windows at a different offset, so batch
      // boundaries differ across threads.
      size_t at = static_cast<size_t>(c) * 5 % probes.size();
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<std::pair<NodeId, NodeId>> batch;
        std::vector<size_t> index;
        for (size_t k = 0; k < kBatch; ++k) {
          index.push_back((at + k) % probes.size());
          batch.push_back(probes[index.back()]);
        }
        at = (at + kBatch) % probes.size();
        auto answers = server.value()->QueryBatch(batch);
        if (!answers.ok()) {
          violations.fetch_add(1000);
          return;
        }
        for (size_t k = 0; k < batch.size(); ++k) {
          if (answers.value()[k].reachable) {
            seen_yes[index[k]] = true;
          } else if (seen_yes[index[k]]) {
            violations.fetch_add(1);  // YES regressed to NO: stale epoch
          }
        }
      }
    });
  }

  for (int i = 1; i < kChainCores; ++i) {
    ASSERT_TRUE(server.value()->SwapCore(cores[i], i).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(violations.load(), 0);

  const std::unique_ptr<ReachService> final_service =
      ReachService::Create(cores.back());
  auto expected = final_service->QueryBatch(probes);
  auto answers = server.value()->QueryBatch(probes);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(answers.ok());
  for (size_t p = 0; p < probes.size(); ++p) {
    EXPECT_TRUE(expected.value()[p].reachable);
    EXPECT_EQ(answers.value()[p].reachable, expected.value()[p].reachable)
        << probes[p].first << " -> " << probes[p].second;
  }
}

// The single-owner dynamic stack with the rebuilder thread racing it:
// the owner mutates and queries while the rebuilder publishes snapshots
// as fast as it can. Every answer is diffed against an in-memory mirror
// of the live graph — publication/adoption must never surface a stale or
// torn snapshot.
TEST(RebuilderRaceTest, BackgroundPublishNeverServesStaleAnswers) {
  constexpr NodeId kNodes = 64;
  auto log = MutationLog::Open({{0, 1}}, kNodes);
  ASSERT_TRUE(log.ok());
  auto service = DynamicReachService::Create(log.value().get());
  ASSERT_TRUE(service.ok());
  DynamicReachService* serving = service.value().get();

  IndexRebuilderOptions rebuild_options;
  rebuild_options.mutations_per_rebuild = 1;  // publish at every chance
  rebuild_options.poll_interval = std::chrono::milliseconds(1);
  IndexRebuilder rebuilder(
      log.value().get(),
      [serving](std::shared_ptr<const ReachCore> core,
                MutationLog::Epoch epoch, double seconds) {
        serving->PublishSnapshot(std::move(core), epoch, seconds);
      },
      rebuild_options);
  rebuilder.Start();

  // Mirror of the live graph for reference BFS answers.
  std::vector<std::unordered_set<NodeId>> adjacency(kNodes);
  adjacency[0].insert(1);
  std::vector<Arc> live = {{0, 1}};
  const auto reaches = [&](NodeId u, NodeId v) {
    if (u == v) return true;
    std::vector<bool> visited(kNodes, false);
    std::vector<NodeId> frontier = {u};
    visited[static_cast<size_t>(u)] = true;
    while (!frontier.empty()) {
      const NodeId x = frontier.back();
      frontier.pop_back();
      for (const NodeId y : adjacency[static_cast<size_t>(x)]) {
        if (y == v) return true;
        if (!visited[static_cast<size_t>(y)]) {
          visited[static_cast<size_t>(y)] = true;
          frontier.push_back(y);
        }
      }
    }
    return false;
  };

  Rng rng(4242);
  int mismatches = 0;
  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.Uniform(0, 99) / 100.0;
    if (roll < 0.25) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
      const NodeId v = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
      if (u != v && !adjacency[static_cast<size_t>(u)].contains(v)) {
        ASSERT_TRUE(serving->InsertArc(u, v).ok());
        adjacency[static_cast<size_t>(u)].insert(v);
        live.push_back(Arc{u, v});
      }
    } else if (roll < 0.40 && !live.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
      const Arc victim = live[pick];
      ASSERT_TRUE(serving->DeleteArc(victim.src, victim.dst).ok());
      adjacency[static_cast<size_t>(victim.src)].erase(victim.dst);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const NodeId u = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
      const NodeId v = static_cast<NodeId>(rng.Uniform(0, kNodes - 1));
      auto answer = serving->Query(u, v);
      ASSERT_TRUE(answer.ok());
      if (answer.value().reachable != reaches(u, v)) ++mismatches;
    }
  }
  // The incremental tier makes the trace finish in a few milliseconds,
  // so the 1 ms rebuild poll may never have fired yet; wait (bounded)
  // for one publication so the liveness assertions below are not a race
  // against thread start-up. A publication is guaranteed eventually:
  // the log is thousands of epochs past the last build.
  for (int spin = 0; spin < 5000 && rebuilder.rebuilds_published() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rebuilder.Stop();
  // The final publication may have landed after the last query; drain
  // the slot explicitly so the adoption counter reflects it.
  serving->AdoptPublishedSnapshot();
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(rebuilder.rebuilds_published(), 0);
  EXPECT_GT(serving->stats().snapshots_adopted, 0);
  EXPECT_EQ(log.value()->adjacency().num_arcs(),
            log.value()->num_live_arcs());
}

// A background rebuild that fails for an operational reason, here a
// kChain label budget that the thinned graph no longer fits, is counted
// rather than fatal. It is not retried at the same epoch, and the service
// keeps answering exactly from its last snapshot and the incremental tier.
TEST(RebuilderRaceTest, FailedRebuildIsCountedAndServingContinues) {
  constexpr NodeId kNodes = 64;
  ArcList path;
  for (NodeId v = 0; v + 1 < kNodes; ++v) path.push_back(Arc{v, v + 1});
  auto log = MutationLog::Open(path, kNodes);
  ASSERT_TRUE(log.ok());
  DynamicReachOptions options;
  options.index.backend = ReachBackend::kChain;
  // One chain: the path's frontier labels fit in 512 bytes. With every
  // other arc deleted it needs far more chains, and the build fails.
  options.index.chain.max_label_bytes = 512;
  auto service = DynamicReachService::Create(log.value().get(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DynamicReachService* serving = service.value().get();

  ReferenceGraph reference(kNodes);
  for (const Arc& arc : path) reference.Insert(arc.src, arc.dst);
  for (NodeId v = 0; v + 1 < kNodes; v += 2) {
    ASSERT_TRUE(serving->DeleteArc(v, v + 1).ok());
    reference.Delete(v, v + 1);
  }

  IndexRebuilderOptions rebuild_options;
  rebuild_options.index = options.index;
  rebuild_options.mutations_per_rebuild = 1;
  rebuild_options.poll_interval = std::chrono::milliseconds(1);
  IndexRebuilder rebuilder(
      log.value().get(),
      [serving](std::shared_ptr<const ReachCore> core,
                MutationLog::Epoch epoch, double seconds) {
        serving->PublishSnapshot(std::move(core), epoch, seconds);
      },
      rebuild_options);
  rebuilder.Start();
  for (int spin = 0; spin < 5000 && rebuilder.rebuild_failures() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Many polls later, the failed epoch has not been tried again.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rebuilder.Stop();
  EXPECT_EQ(rebuilder.rebuild_failures(), 1);
  EXPECT_EQ(rebuilder.rebuilds_published(), 0);

  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) {
      auto answer = serving->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().reachable, reference.Reaches(u, v))
          << u << " -> " << v;
    }
  }

  // A forced rebuild reports the failure to its caller, and counts it.
  EXPECT_EQ(rebuilder.RebuildNow().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rebuilder.rebuild_failures(), 2);
}

}  // namespace
}  // namespace tcdb

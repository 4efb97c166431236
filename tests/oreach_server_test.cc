// Concurrency tests of the search core (a kLabels core: the O'Reach-style
// battery of 64 root words plus a bidirectional search) behind the
// multi-threaded serving layer: served by a ReachServer under concurrent
// clients it answers bit-identically to an exact chain core, the merged
// statistics attribute every query to exactly one rule, and it arrives
// intact through the SwapCore hot-swap path. This is a TSan target
// (tools/check.sh): the core is shared read-only by every client's lane
// while each lane searches on its own scratch, so any missing
// synchronization shows up here.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/generator.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "scale_oracle.h"
#include "workload/traffic_model.h"

namespace tcdb {
namespace {

struct Fixture {
  ArcList arcs;
  NodeId num_nodes = 0;
  Digraph graph;
  std::shared_ptr<const ReachCore> baseline;  // kChain: exact labels
  std::shared_ptr<const ReachCore> battery;   // kLabels: words + search
  std::vector<std::pair<NodeId, NodeId>> adversarial;
};

// One graph, both cores, and an adversarial mix mined against the search
// core's words — the traffic that sends the most queries to the search.
Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  GeneratorParams params;
  params.num_nodes = 600;
  params.avg_out_degree = 5;
  params.locality = 120;
  params.seed = seed;
  f.arcs = GenerateDag(params);
  f.num_nodes = params.num_nodes;
  f.graph = Digraph(f.num_nodes, f.arcs);

  ReachIndexOptions baseline_options;
  baseline_options.backend = ReachBackend::kChain;
  auto baseline = ReachCore::Build(f.arcs, f.num_nodes, baseline_options);
  TCDB_CHECK(baseline.ok()) << baseline.status().ToString();
  f.baseline = baseline.value();

  ReachIndexOptions battery_options;
  battery_options.backend = ReachBackend::kLabels;
  auto battery = ReachCore::Build(f.arcs, f.num_nodes, battery_options);
  TCDB_CHECK(battery.ok()) << battery.status().ToString();
  f.battery = battery.value();

  TrafficModelOptions traffic;
  traffic.kind = WorkloadKind::kAdversarial;
  traffic.seed = seed + 1;
  f.adversarial = MakeModelWorkload(f.graph, traffic, 6000,
                                    MakeLadderProbe(f.battery));
  return f;
}

std::unique_ptr<ReachServer> StartOrDie(
    std::shared_ptr<const ReachCore> core) {
  auto server = ReachServer::Start(std::move(core));
  TCDB_CHECK(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

TEST(OreachServerTest, ShardedBatteryAnswersMatchBaseline) {
  const Fixture f = MakeFixture(17);
  const std::unique_ptr<ReachServer> off = StartOrDie(f.baseline);
  const std::unique_ptr<ReachServer> on = StartOrDie(f.battery);

  // One big batch, one label pass.
  auto off_answers = off->QueryBatch(f.adversarial);
  auto on_answers = on->QueryBatch(f.adversarial);
  ASSERT_TRUE(off_answers.ok()) << off_answers.status().ToString();
  ASSERT_TRUE(on_answers.ok()) << on_answers.status().ToString();
  ASSERT_EQ(off_answers.value().size(), on_answers.value().size());
  for (size_t i = 0; i < f.adversarial.size(); ++i) {
    ASSERT_EQ(off_answers.value()[i].reachable,
              on_answers.value()[i].reachable)
        << f.adversarial[i].first << " -> " << f.adversarial[i].second;
  }

  // Both halves of the search core do real work on this mix: the words
  // decide some queries and the search settles others.
  const ReachServerStats stats = on->Snapshot();
  EXPECT_GT(stats.merged.Decided(ReachStage::kSupportivePositive) +
                stats.merged.Decided(ReachStage::kSupportiveNegative),
            0);
  EXPECT_GT(stats.merged.Decided(ReachStage::kPrunedBfs), 0);
  EXPECT_EQ(off->Snapshot().merged.Decided(ReachStage::kPrunedBfs), 0);
}

TEST(OreachServerTest, ConcurrentClientsAndRuleAttribution) {
  const Fixture f = MakeFixture(23);
  const std::unique_ptr<ReachServer> server = StartOrDie(f.battery);

  auto report = RunServingLoad(server.get(), f.adversarial, /*num_clients=*/4,
                               /*batch_size=*/128);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().queries,
            static_cast<int64_t>(f.adversarial.size()));

  // Merged across the clients' lanes, every query is attributed to
  // exactly one rule.
  const ReachServerStats stats = server->Snapshot();
  EXPECT_EQ(stats.merged.queries,
            static_cast<int64_t>(f.adversarial.size()));
  int64_t rule_total = 0;
  for (int r = 0; r < kNumReachRules; ++r) {
    rule_total += stats.merged.rule_decided[r];
  }
  EXPECT_EQ(rule_total, stats.merged.queries);
  EXPECT_EQ(stats.latency.count(), stats.merged.queries);
}

TEST(OreachServerTest, SwapCorePublishesBatteryToAllShards) {
  const Fixture f = MakeFixture(31);
  const std::unique_ptr<ReachServer> server = StartOrDie(f.baseline);

  // Warm traffic against the chain core, which never searches.
  auto warm = RunServingLoad(server.get(), f.adversarial, 4, 128);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(server->Snapshot().merged.Decided(ReachStage::kPrunedBfs), 0);

  // Publish the search core, then drive traffic: every call after the
  // swap reads its words and searches its residue.
  ASSERT_TRUE(server->SwapCore(f.battery, /*epoch=*/1).ok());
  auto volley = RunServingLoad(server.get(), f.adversarial, 4, 128);
  ASSERT_TRUE(volley.ok()) << volley.status().ToString();

  const ReachServerStats stats = server->Snapshot();
  EXPECT_EQ(stats.core_swaps, 1);
  EXPECT_EQ(stats.published_epoch, 1);
  EXPECT_GT(stats.merged.Decided(ReachStage::kPrunedBfs), 0);

  // Sampled differential after the swap: answers still match the exact
  // BFS cones of the original graph.
  EXPECT_TRUE(VerifySampledReachability(
      f.graph, /*num_sources=*/24, /*seed=*/5, [&](NodeId u, NodeId v) {
        auto answer = server->Query(u, v);
        TCDB_CHECK(answer.ok()) << answer.status().ToString();
        return answer.value().reachable;
      }));
}

}  // namespace
}  // namespace tcdb

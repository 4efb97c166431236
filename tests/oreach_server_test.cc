// Concurrency tests of the observation battery behind the sharded
// serving layer: a battery core served by a multi-shard ReachServer under
// concurrent clients answers bit-identically to the battery-off baseline,
// the merged statistics attribute every query to exactly one rule, and a
// battery core arrives intact through the SwapCore hot-swap path. This is
// a TSan target (tools/check.sh): the battery is shared read-only by
// every shard, so any missing synchronization shows up here.

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
  std::shared_ptr<const ReachCore> baseline;
  std::shared_ptr<const ReachCore> battery;
  std::vector<std::pair<NodeId, NodeId>> adversarial;
};

// One graph, both cores, and an adversarial mix mined against the
// baseline ladder — the traffic most likely to expose a battery bug.
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

  // Both cores pin the label ladder: the battery is one of its rungs.
  ReachIndexOptions baseline_options;
  baseline_options.backend = ReachBackend::kLabels;
  auto baseline = ReachCore::Build(f.arcs, f.num_nodes, baseline_options);
  TCDB_CHECK(baseline.ok()) << baseline.status().ToString();
  f.baseline = baseline.value();

  TrafficModelOptions traffic;
  traffic.kind = WorkloadKind::kAdversarial;
  traffic.seed = seed + 1;
  f.adversarial = MakeModelWorkload(f.graph, traffic, 6000,
                                    MakeLadderProbe(f.baseline));

  ReachIndexOptions battery_options = baseline_options;
  battery_options.oreach = true;
  TrafficModelOptions train = traffic;
  train.seed = seed + 2;
  battery_options.oreach_traffic =
      MakeModelWorkload(f.graph, train, 2048, MakeLadderProbe(f.baseline));
  auto battery = ReachCore::Build(f.arcs, f.num_nodes, battery_options);
  TCDB_CHECK(battery.ok()) << battery.status().ToString();
  TCDB_CHECK(battery.value()->has_battery);
  f.battery = battery.value();
  return f;
}

std::unique_ptr<ReachServer> StartOrDie(std::shared_ptr<const ReachCore> core,
                                        int32_t shards) {
  ReachServerOptions options;
  options.num_shards = shards;
  auto server = ReachServer::Start(std::move(core), options);
  TCDB_CHECK(server.ok()) << server.status().ToString();
  return std::move(server).value();
}

TEST(OreachServerTest, ShardedBatteryAnswersMatchBaseline) {
  const Fixture f = MakeFixture(17);
  const std::unique_ptr<ReachServer> off = StartOrDie(f.baseline, 4);
  const std::unique_ptr<ReachServer> on = StartOrDie(f.battery, 4);

  // One big batch: splits across all four shards.
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

  // The battery must be doing real work on this mix, not just riding on
  // identical answers.
  const ReachServerStats stats = on->Snapshot();
  EXPECT_GT(stats.merged.Decided(ReachStage::kObservation), 0);
  EXPECT_GT(stats.merged.DecidedWithoutFallback(),
            off->Snapshot().merged.DecidedWithoutFallback());
}

TEST(OreachServerTest, ConcurrentClientsAndRuleAttribution) {
  const Fixture f = MakeFixture(23);
  const std::unique_ptr<ReachServer> server = StartOrDie(f.battery, 4);

  auto report = RunServingLoad(server.get(), f.adversarial, /*num_clients=*/4,
                               /*batch_size=*/128);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().queries,
            static_cast<int64_t>(f.adversarial.size()));

  // Merged across shards, every query is attributed to exactly one rule,
  // and the per-shard counters sum to the merged totals.
  const ReachServerStats stats = server->Snapshot();
  EXPECT_EQ(stats.merged.queries,
            static_cast<int64_t>(f.adversarial.size()));
  int64_t rule_total = 0;
  for (int r = 0; r < kNumReachRules; ++r) {
    rule_total += stats.merged.rule_decided[r];
  }
  EXPECT_EQ(rule_total, stats.merged.queries);
  int64_t shard_queries = 0;
  for (const ReachStats& shard : stats.per_shard) {
    shard_queries += shard.queries;
  }
  EXPECT_EQ(shard_queries, stats.merged.queries);
}

TEST(OreachServerTest, SwapCorePublishesBatteryToAllShards) {
  const Fixture f = MakeFixture(31);
  const std::unique_ptr<ReachServer> server = StartOrDie(f.baseline, 4);

  // Warm traffic against the baseline core.
  auto warm = RunServingLoad(server.get(), f.adversarial, 4, 128);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(server->Snapshot().merged.Decided(ReachStage::kObservation), 0);

  // Publish the battery core, then drive traffic: every call after the
  // swap reads the battery core's labels.
  ASSERT_TRUE(server->SwapCore(f.battery, /*epoch=*/1).ok());
  auto volley = RunServingLoad(server.get(), f.adversarial, 4, 128);
  ASSERT_TRUE(volley.ok()) << volley.status().ToString();

  const ReachServerStats stats = server->Snapshot();
  EXPECT_EQ(stats.core_swaps, 1);
  EXPECT_EQ(stats.published_epoch, 1);
  EXPECT_GT(stats.merged.Decided(ReachStage::kObservation), 0);

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

// Tests of the O'Reach observation battery (oreach/observation_battery.h)
// and its serving integration: every battery verdict differentially
// pinned against the BFS reference closure across the paper generator and
// all five scale families, cyclic inputs through the condensation front,
// a 50-seed battery-on vs battery-off bit-identical sweep over full
// ReachService answers, pivot-selection determinism, image round trips
// with truncation errors, and ReachCore::Decide as the one O(1) decision
// behind both the service ladder and the adversarial miner's probe.

#include "oreach/observation_battery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "graph/scale_generator.h"
#include "reach/load_driver.h"
#include "reach/reach_service.h"
#include "util/codec.h"
#include "util/random.h"

namespace tcdb {
namespace {

ObservationBattery BuildOrDie(
    const Digraph& dag, const ObservationBatteryOptions& options = {},
    std::span<const std::pair<NodeId, NodeId>> traffic = {},
    const DecideProbe& probe = nullptr) {
  auto built = ObservationBattery::Build(dag, options, traffic, probe);
  TCDB_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every non-unknown verdict on every pair must agree with the reference
// closure — the battery is only allowed to be incomplete, never wrong.
void ExpectSoundOnAllPairs(const Digraph& dag,
                           const ObservationBattery& battery,
                           const std::string& context) {
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(dag);
  int64_t decided = 0;
  for (NodeId u = 0; u < dag.NumNodes(); ++u) {
    for (NodeId v = 0; v < dag.NumNodes(); ++v) {
      ReachRule rule = ReachRule::kFallback;
      const ObservationBattery::Verdict verdict =
          battery.TryDecide(u, v, &rule);
      if (verdict == ObservationBattery::Verdict::kUnknown) continue;
      // Reflexive pairs are the service's kTrivial business; the battery
      // must stay out (its negative observations do not hold for u == v).
      ASSERT_NE(u, v) << context << ": battery decided a reflexive pair";
      const bool expected = std::binary_search(closure[u].begin(),
                                               closure[u].end(), v);
      ASSERT_EQ(verdict == ObservationBattery::Verdict::kYes, expected)
          << context << ": u=" << u << " v=" << v
          << " rule=" << ReachRuleName(rule);
      ++decided;
    }
  }
  EXPECT_GT(decided, 0) << context << ": battery decided nothing at all";
}

TEST(ObservationBatteryTest, EmptyAndDegenerate) {
  const ObservationBattery empty;
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_EQ(empty.TryDecide(0, 0), ObservationBattery::Verdict::kUnknown);

  const ObservationBattery one = BuildOrDie(Digraph(1, {}));
  EXPECT_EQ(one.TryDecide(0, 0), ObservationBattery::Verdict::kUnknown);
}

TEST(ObservationBatteryTest, RejectsCyclicInput) {
  const Digraph cyclic(3, {{0, 1}, {1, 2}, {2, 0}});
  auto built = ObservationBattery::Build(cyclic, {});
  EXPECT_FALSE(built.ok());
}

TEST(ObservationBatteryTest, HandDagObservations) {
  // Two parallel diamonds plus an isolated node: 0->1->3, 0->2->3, 4.
  const Digraph dag(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const ObservationBattery battery = BuildOrDie(dag);
  // The isolated node is in its own weak component: both directions "no".
  EXPECT_EQ(battery.TryDecide(0, 4), ObservationBattery::Verdict::kNo);
  EXPECT_EQ(battery.TryDecide(4, 3), ObservationBattery::Verdict::kNo);
  // Level/topo observations refute the backward pairs.
  EXPECT_EQ(battery.TryDecide(3, 0), ObservationBattery::Verdict::kNo);
  // Reflexive pairs are never the battery's call.
  EXPECT_EQ(battery.TryDecide(2, 2), ObservationBattery::Verdict::kUnknown);
  ExpectSoundOnAllPairs(dag, battery, "hand dag");
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
    ExpectSoundOnAllPairs(dag, BuildOrDie(dag),
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
    ExpectSoundOnAllPairs(dag, BuildOrDie(dag), ScaleFamilyName(family));
  }
}

// Cyclic input through the serving stack: the battery-enabled core is
// built on the condensation; all answers must still match the reference
// closure of the original graph.
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

  ReachServiceOptions options;
  options.index.backend = ReachBackend::kLabels;  // the battery's ladder
  options.index.oreach = true;
  auto service = ReachService::Build(arcs, params.num_nodes, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(service.value()->condensed());
  ASSERT_TRUE(service.value()->core().has_battery);
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      const bool expected =
          u == v || std::binary_search(closure[u].begin(),
                                       closure[u].end(), v);
      auto answer = service.value()->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().reachable, expected)
          << "u=" << u << " v=" << v;
    }
  }
}

// The acceptance sweep: across 50 seeds, a battery-on service must give
// bit-identical answers to a battery-off service on the same traffic.
// (The battery may only move *which rung* answers, never the answer.)
TEST(ObservationBatteryTest, BatteryOnOffBitIdenticalAcross50Seeds) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    GeneratorParams params;
    params.num_nodes = 150 + static_cast<NodeId>(seed % 7) * 20;
    params.avg_out_degree = 3 + static_cast<int32_t>(seed % 4);
    params.locality = 40;
    params.seed = seed;
    const ArcList arcs = GenerateDag(params);

    ReachServiceOptions off_options;
    off_options.index.backend = ReachBackend::kLabels;
    auto off = ReachService::Build(arcs, params.num_nodes, off_options);
    ASSERT_TRUE(off.ok()) << off.status().ToString();

    ReachServiceOptions on_options;
    on_options.index.backend = ReachBackend::kLabels;
    on_options.index.oreach = true;
    on_options.index.oreach_options.seed = seed;  // vary battery internals
    auto on = ReachService::Build(arcs, params.num_nodes, on_options);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ASSERT_TRUE(on.value()->core().has_battery);

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

// Pivot selection is a pure function of (dag, options, traffic): two
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

  const ObservationBattery a = BuildOrDie(dag, {}, traffic);
  const ObservationBattery b = BuildOrDie(dag, {}, traffic);
  EXPECT_GT(a.num_pivots(), 0);
  EXPECT_EQ(a.pivot_nodes(), b.pivot_nodes());
  std::string image_a;
  std::string image_b;
  a.SerializeAppend(&image_a);
  b.SerializeAppend(&image_b);
  EXPECT_EQ(image_a, image_b);

  // A different traffic shape is allowed to (and here does) move the
  // pivots — the training signal is real, not decorative.
  std::vector<std::pair<NodeId, NodeId>> skewed;
  for (int i = 0; i < 2000; ++i) {
    skewed.emplace_back(static_cast<NodeId>(rng.Uniform(0, 10)),
                        static_cast<NodeId>(rng.Uniform(0, 10)));
  }
  const ObservationBattery c = BuildOrDie(dag, {}, skewed);
  EXPECT_NE(a.pivot_nodes(), c.pivot_nodes());
}

TEST(ObservationBatteryTest, SerializationRoundTrip) {
  GeneratorParams params;
  params.num_nodes = 250;
  params.avg_out_degree = 4;
  params.locality = 50;
  params.seed = 8;
  const Digraph dag(params.num_nodes, GenerateDag(params));
  const ObservationBattery battery = BuildOrDie(dag);

  std::string image;
  battery.SerializeAppend(&image);
  codec::Reader reader(image.data(), image.size());
  auto restored = ObservationBattery::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);

  EXPECT_EQ(restored.value().num_nodes(), battery.num_nodes());
  EXPECT_EQ(restored.value().num_orders(), battery.num_orders());
  EXPECT_EQ(restored.value().num_cuts(), battery.num_cuts());
  EXPECT_EQ(restored.value().pivot_nodes(), battery.pivot_nodes());
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      ASSERT_EQ(restored.value().TryDecide(u, v), battery.TryDecide(u, v))
          << "u=" << u << " v=" << v;
    }
  }
  // Re-serializing the restored battery reproduces the image bit-for-bit.
  std::string image2;
  restored.value().SerializeAppend(&image2);
  EXPECT_EQ(image, image2);
}

TEST(ObservationBatteryTest, TruncatedImagesError) {
  const Digraph dag(40, {{0, 1}, {1, 2}, {3, 4}, {2, 5}, {4, 5}});
  const ObservationBattery battery = BuildOrDie(dag);
  std::string image;
  battery.SerializeAppend(&image);
  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{3}, image.size() / 4, image.size() / 2,
        image.size() - 1}) {
    const std::string truncated = image.substr(0, keep);
    codec::Reader reader(truncated.data(), truncated.size());
    auto restored = ObservationBattery::Deserialize(&reader);
    EXPECT_FALSE(restored.ok()) << "accepted a " << keep << "-byte prefix";
  }
}

// The battery rung shows up in the service ladder: on traffic the base
// rules cannot decide, kObservation answers a nonzero share, attributed
// to individual observation rules, and the rule counters sum to queries.
TEST(ObservationBatteryTest, ServiceLadderAttribution) {
  GeneratorParams params;
  params.num_nodes = 500;
  params.avg_out_degree = 5;
  params.locality = 100;
  params.seed = 13;
  const ArcList arcs = GenerateDag(params);

  ReachServiceOptions options;
  options.index.backend = ReachBackend::kLabels;  // the battery's ladder
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
// with Decide's verdict and stage. Checked on every pair of a small
// cyclic graph with a battery.
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
  ReachServiceOptions options;
  options.index.backend = ReachBackend::kLabels;  // the battery's ladder
  options.index.oreach = true;
  options.index.oreach_traffic = MakeModelWorkload(graph, traffic, 512);
  options.cache_capacity = 0;
  auto built = ReachCore::Build(arcs, params.num_nodes, options.index);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ReachCore& core = *built.value();
  ASSERT_TRUE(core.condensed());
  ASSERT_TRUE(core.has_battery);
  const WorkloadDecideProbe probe = MakeLadderProbe(built.value());
  const std::unique_ptr<ReachService> service =
      ReachService::Create(built.value(), options);

  int64_t undecided = 0;
  for (NodeId u = 0; u < params.num_nodes; ++u) {
    for (NodeId v = 0; v < params.num_nodes; ++v) {
      ReachStage stage = ReachStage::kTrivial;
      const ReachIndex::Verdict verdict = core.Decide(u, v, &stage);
      const bool decided = verdict != ReachIndex::Verdict::kUnknown;
      ASSERT_EQ(probe(u, v), decided) << "u=" << u << " v=" << v;
      auto answer = service->Query(u, v);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      if (decided) {
        EXPECT_EQ(answer.value().reachable,
                  verdict == ReachIndex::Verdict::kYes);
        EXPECT_EQ(answer.value().stage, stage);
      } else {
        ++undecided;
        EXPECT_EQ(answer.value().stage, ReachStage::kPrunedBfs);
      }
    }
  }
  EXPECT_GT(undecided, 0);
  EXPECT_EQ(undecided, service->stats().Decided(ReachStage::kPrunedBfs));
}

}  // namespace
}  // namespace tcdb

// bench_reach_mt — Multi-threaded reach serving on the paper's center
// family G5 (n = 2000, F = 5, l = 200), in two acts:
//
// 1. Thread scaling: one shared immutable ReachCore, T client threads,
//    each on its own server lane (private cache/scratch), firing
//    MakeServingWorkload batches of 256, for T in {1, 2, 4, 8, 16} up to
//    the host's core count (more client threads than cores would measure
//    the scheduler).
//    Reports queries/second, speedup over T = 1, the merged
//    serving-latency histogram per point, and whether the point meets
//    the scaling target of a speedup of at least 0.7 x T (reported, not
//    enforced).
//
// 2. Workload mixes: every TrafficModel kind (uniform, zipf, hot-pair,
//    adversarial, mixed) is served twice — once on the baseline kLabels
//    core, once with the O'Reach observation battery enabled and trained
//    on a disjoint traffic sample of the same kind. Each run emits one
//    machine-readable JSON line (decided rate, per-rule hit fractions,
//    cache hit rate, p50/p99) plus a human table row. The adversarial
//    mix is mined against the baseline core's O(1) rules, i.e. it is the
//    fallback cliff by construction; the bench *gates* on the battery
//    recovering a margin of it: label-decided fraction (battery on) must
//    exceed (battery off) by at least REACH_MT_BATTERY_MARGIN_PCT
//    percentage points (default below), else exit nonzero.
//
// QUICK=1 shrinks the workloads; REACH_MT_QUERIES / REACH_MT_WORKLOAD_QUERIES
// override the volley sizes outright.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "util/env.h"
#include "util/table_printer.h"
#include "workload/traffic_model.h"

namespace tcdb {
namespace {

// Battery-on label-decided fraction must beat battery-off by at least
// this many percentage points on the adversarial mix. Measured headroom
// is far larger (the miner targets exactly the residue the battery's
// negative observations cover); the gate only has to catch the battery
// rung silently falling out of the ladder.
constexpr int64_t kDefaultBatteryMarginPct = 10;

struct ServeResult {
  ReachServerStats stats;
  double qps = 0;
};

// Fires `pairs` at a fresh server over `core` from `threads` clients and
// returns the merged post-run snapshot.
Result<ServeResult> ServeWorkload(
    std::shared_ptr<const ReachCore> core,
    std::span<const std::pair<NodeId, NodeId>> pairs, int32_t threads) {
  TCDB_ASSIGN_OR_RETURN(const std::unique_ptr<ReachServer> server,
                        ReachServer::Start(std::move(core)));
  TCDB_ASSIGN_OR_RETURN(
      const LoadReport report,
      RunServingLoad(server.get(), pairs, threads, /*batch_size=*/256));
  ServeResult result;
  result.stats = server->Snapshot();
  result.qps = report.QueriesPerSecond();
  server->Stop();
  return result;
}

// Fraction of queries the O(1) labels decided outright — no cache hit,
// no pruned BFS, no session. This is the number the battery exists to
// move, and the one the adversarial gate compares.
double LabelDecidedRate(const ReachStats& stats) {
  if (stats.queries == 0) return 0;
  return static_cast<double>(stats.DecidedWithoutFallback() -
                             stats.RuleDecided(ReachRule::kCacheHit)) /
         static_cast<double>(stats.queries);
}

std::string Fixed(double value, int digits) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

// One machine-readable line per (workload, battery) run. Stable keys so
// plotting scripts can diff battery on/off without scraping the table.
void EmitJsonLine(const char* workload, bool battery,
                  const ServeResult& run) {
  const ReachStats& s = run.stats.merged;
  const double queries = static_cast<double>(std::max<int64_t>(s.queries, 1));
  std::cout << "{\"bench\":\"reach_workloads\",\"workload\":\"" << workload
            << "\",\"battery\":" << (battery ? "true" : "false")
            << ",\"queries\":" << s.queries
            << ",\"qps\":" << Fixed(run.qps, 0)
            << ",\"decided_rate\":"
            << Fixed(static_cast<double>(s.DecidedWithoutFallback()) / queries,
                     4)
            << ",\"label_rate\":" << Fixed(LabelDecidedRate(s), 4)
            << ",\"cache_hit_rate\":" << Fixed(s.CacheHitRate(), 4)
            << ",\"p50_us\":"
            << Fixed(run.stats.latency.QuantileSeconds(0.50) * 1e6, 2)
            << ",\"p99_us\":"
            << Fixed(run.stats.latency.QuantileSeconds(0.99) * 1e6, 2)
            << ",\"rules\":{";
  bool first = true;
  for (int r = 0; r < kNumReachRules; ++r) {
    const int64_t decided = s.rule_decided[r];
    if (decided == 0) continue;
    if (!first) std::cout << ",";
    first = false;
    std::cout << "\"" << ReachRuleName(static_cast<ReachRule>(r))
              << "\":" << Fixed(static_cast<double>(decided) / queries, 4);
  }
  std::cout << "}}\n";
}

int RunBench() {
  const GraphFamily& family = FamilyByName("G5");
  const GeneratorParams params = CatalogParams(family, 0);
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  const bool quick = GetEnvBool("QUICK");

  // ---- Act 1: thread scaling -------------------------------------------
  const int64_t num_queries =
      GetEnvInt("REACH_MT_QUERIES", quick ? 20000 : 200000);
  const std::vector<std::pair<NodeId, NodeId>> workload =
      MakeServingWorkload(graph, num_queries, /*seed=*/42);

  std::cout << "Multi-threaded reach serving scalability: " << family.name
            << " (F=" << family.avg_out_degree
            << ", l=" << family.locality << "), " << num_queries
            << " queries per point, batches of 256\n\n";

  TablePrinter table({"threads", "qps", "speedup", "mean_us", "p50_us",
                      "p99_us", "fallback_pct", "speedup>=0.7T"});
  const int32_t cores = static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  double baseline_qps = 0;
  for (const int32_t threads : {1, 2, 4, 8, 16}) {
    if (threads > cores) break;
    auto server = ReachServer::Start(arcs, params.num_nodes);
    if (!server.ok()) {
      std::cerr << "server: " << server.status().ToString() << "\n";
      return 1;
    }
    // Warm-up volley so index/cache effects do not tilt the first row.
    auto warm = RunServingLoad(server.value().get(),
                               std::span(workload).subspan(
                                   0, std::min<size_t>(workload.size(),
                                                       4096)),
                               threads, /*batch_size=*/256);
    if (!warm.ok()) {
      std::cerr << "warm-up: " << warm.status().ToString() << "\n";
      return 1;
    }
    auto report = RunServingLoad(server.value().get(), workload, threads,
                                 /*batch_size=*/256);
    if (!report.ok()) {
      std::cerr << "load: " << report.status().ToString() << "\n";
      return 1;
    }
    const double qps = report.value().QueriesPerSecond();
    if (threads == 1) baseline_qps = qps;
    const double speedup = baseline_qps <= 0 ? 0.0 : qps / baseline_qps;

    const ReachServerStats stats = server.value()->Snapshot();
    const double fallback_pct =
        stats.merged.queries == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(stats.merged.queries -
                                      stats.merged.DecidedWithoutFallback()) /
                  static_cast<double>(stats.merged.queries);
    table.NewRow()
        .AddCell(static_cast<int64_t>(threads))
        .AddCell(qps, 0)
        .AddCell(speedup, 2)
        .AddCell(stats.latency.MeanSeconds() * 1e6, 2)
        .AddCell(stats.latency.QuantileSeconds(0.50) * 1e6, 2)
        .AddCell(stats.latency.QuantileSeconds(0.99) * 1e6, 2)
        .AddCell(fallback_pct, 2)
        .AddCell(std::string(speedup >= 0.7 * threads ? "yes" : "no"));
    server.value()->Stop();
  }
  table.Print(std::cout);
  table.WriteCsv("reach_mt_scaling");

  // ---- Act 2: workload mixes, battery off vs on ------------------------
  const int64_t workload_queries =
      GetEnvInt("REACH_MT_WORKLOAD_QUERIES", quick ? 8000 : 60000);
  const int32_t serve_threads = 4;

  // Both cores pin the label ladder: the battery is one of its rungs.
  ReachIndexOptions baseline_options;
  baseline_options.backend = ReachBackend::kLabels;
  auto baseline_core =
      ReachCore::Build(arcs, params.num_nodes, baseline_options);
  if (!baseline_core.ok()) {
    std::cerr << "core: " << baseline_core.status().ToString() << "\n";
    return 1;
  }
  // Mines/filters against the baseline O(1) rules only — the adversarial
  // mix is what *those* rules cannot decide, which is exactly the
  // population the battery is graded on.
  const WorkloadDecideProbe baseline_probe =
      MakeLadderProbe(baseline_core.value());

  std::cout << "\nWorkload mixes: " << workload_queries
            << " queries each, " << serve_threads
            << " clients, battery off vs on (JSON lines below)\n\n";

  TablePrinter mix_table({"workload", "battery", "decided_pct", "label_pct",
                          "cache_pct", "fallback_pct", "p50_us", "p99_us"});
  double adversarial_off_rate = -1;
  double adversarial_on_rate = -1;

  const WorkloadKind kinds[] = {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                WorkloadKind::kHotPair,
                                WorkloadKind::kAdversarial,
                                WorkloadKind::kMixed};
  for (size_t k = 0; k < std::size(kinds); ++k) {
    const WorkloadKind kind = kinds[k];
    const char* name = WorkloadKindName(kind);

    TrafficModelOptions traffic_options;
    traffic_options.kind = kind;
    traffic_options.seed = 1000 + k;
    const std::vector<std::pair<NodeId, NodeId>> mix = MakeModelWorkload(
        graph, traffic_options, workload_queries, baseline_probe);

    // Battery training traffic: same mix shape, disjoint seed — the
    // pivots are trained on what this workload *looks like*, not on the
    // exact pairs it will serve.
    TrafficModelOptions train_options = traffic_options;
    train_options.seed += 7777;
    ReachIndexOptions battery_options = baseline_options;
    battery_options.oreach = true;
    battery_options.oreach_traffic =
        MakeModelWorkload(graph, train_options, 4096, baseline_probe);
    auto battery_core =
        ReachCore::Build(arcs, params.num_nodes, battery_options);
    if (!battery_core.ok()) {
      std::cerr << "battery core: " << battery_core.status().ToString()
                << "\n";
      return 1;
    }

    for (const bool battery : {false, true}) {
      auto run = ServeWorkload(
          battery ? battery_core.value() : baseline_core.value(), mix,
          serve_threads);
      if (!run.ok()) {
        std::cerr << name << ": " << run.status().ToString() << "\n";
        return 1;
      }
      const ReachStats& s = run.value().stats.merged;
      const double queries =
          static_cast<double>(std::max<int64_t>(s.queries, 1));
      const double label_rate = LabelDecidedRate(s);
      mix_table.NewRow()
          .AddCell(std::string(name))
          .AddCell(std::string(battery ? "on" : "off"))
          .AddCell(100.0 * static_cast<double>(s.DecidedWithoutFallback()) /
                       queries,
                   2)
          .AddCell(100.0 * label_rate, 2)
          .AddCell(100.0 * s.CacheHitRate(), 2)
          .AddCell(100.0 *
                       static_cast<double>(s.queries -
                                           s.DecidedWithoutFallback()) /
                       queries,
                   2)
          .AddCell(run.value().stats.latency.QuantileSeconds(0.50) * 1e6, 2)
          .AddCell(run.value().stats.latency.QuantileSeconds(0.99) * 1e6, 2);
      EmitJsonLine(name, battery, run.value());
      if (kind == WorkloadKind::kAdversarial) {
        (battery ? adversarial_on_rate : adversarial_off_rate) = label_rate;
      }
    }
  }
  std::cout << "\n";
  mix_table.Print(std::cout);
  mix_table.WriteCsv("reach_workloads");

  // ---- The gate --------------------------------------------------------
  const double required_margin =
      static_cast<double>(GetEnvInt("REACH_MT_BATTERY_MARGIN_PCT",
                                    kDefaultBatteryMarginPct)) /
      100.0;
  const double margin = adversarial_on_rate - adversarial_off_rate;
  std::cout << "\nbattery gate (adversarial): label_rate off="
            << Fixed(adversarial_off_rate, 4)
            << " on=" << Fixed(adversarial_on_rate, 4)
            << " margin=" << Fixed(margin, 4)
            << " required=" << Fixed(required_margin, 4) << "\n";
  if (adversarial_off_rate < 0 || adversarial_on_rate < 0 ||
      margin < required_margin) {
    std::cerr << "FAIL: observation battery did not raise the O(1) "
                 "label-decided fraction on the adversarial mix by the "
                 "required margin\n";
    return 1;
  }
  std::cout << "PASS: battery margin holds\n";
  return 0;
}

}  // namespace
}  // namespace tcdb

int main() { return tcdb::RunBench(); }

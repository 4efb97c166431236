// bench_reach_mt — Multi-threaded reach serving on the paper's center
// family G5 (n = 2000, F = 5, l = 200), in two acts:
//
// 1. Thread scaling: one shared immutable ReachCore, T client threads,
//    each on its own server lane (private cache/scratch), firing
//    MakeServingWorkload batches of 256, for T in {1, 2, 4, 8, 16} up to
//    the host's core count (more client threads than cores would measure
//    the scheduler). Every T is timed kScalingRepeats times, the thread
//    counts interleaved within each repeat so drift hits them alike; a
//    repeat's speedup divides its T-point by its own T = 1 point.
//    Reports the median queries/second, the median speedup over T = 1
//    with its quartiles, the serving-latency histogram merged over the
//    repeats, and whether the median speedup meets the scaling target of
//    at least 0.7 x T (reported, not enforced): one timing of a ~0.15 s
//    volley swings by a quarter between runs, enough to flip that
//    verdict on noise.
//
// 2. Workload mixes: every TrafficModel kind (uniform, zipf, hot-pair,
//    adversarial, mixed) is served on one search core (a pinned kLabels
//    core: 64 root words and a bidirectional search). Each run emits one
//    machine-readable JSON line (decided rate, per-rule hit fractions,
//    cache hit rate, p50/p99) plus a human table row. The adversarial
//    mix is mined against the core's O(1) rules, i.e. it sends the most
//    queries to the search. The bench *gates* on exact answers: after
//    the timed volley every pair of every mix is asked once more and
//    checked against the reference closure, else exit nonzero.
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
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "reach/load_driver.h"
#include "reach/reach_server.h"
#include "reach/reach_service.h"
#include "reach/reach_stats.h"
#include "util/env.h"
#include "util/table_printer.h"
#include "workload/traffic_model.h"

namespace tcdb {
namespace {

// Timings per thread count in act 1.
constexpr int kScalingRepeats = 5;

// The q-quantile of `values` (0 <= q <= 1), interpolating linearly
// between the order statistics.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

struct ServeResult {
  ReachServerStats stats;
  double qps = 0;
  // Pairs whose answer, asked again after the timed volley, differs from
  // `closure`.
  int64_t wrong = 0;
};

// Fires `pairs` at a fresh server over `core` from `threads` clients and
// returns the merged post-run snapshot, then asks every pair once more
// and counts the answers that differ from `closure` (the reference
// closure, reflexive).
Result<ServeResult> ServeWorkload(
    std::shared_ptr<const ReachCore> core,
    std::span<const std::pair<NodeId, NodeId>> pairs, int32_t threads,
    const std::vector<std::vector<NodeId>>& closure) {
  TCDB_ASSIGN_OR_RETURN(const std::unique_ptr<ReachServer> server,
                        ReachServer::Start(std::move(core)));
  TCDB_ASSIGN_OR_RETURN(
      const LoadReport report,
      RunServingLoad(server.get(), pairs, threads, /*batch_size=*/256));
  ServeResult result;
  result.stats = server->Snapshot();
  result.qps = report.QueriesPerSecond();
  TCDB_ASSIGN_OR_RETURN(const std::vector<ReachServer::Answer> answers,
                        server->QueryBatch(pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const bool truth = u == v || std::binary_search(closure[u].begin(),
                                                    closure[u].end(), v);
    if (answers[i].reachable != truth) ++result.wrong;
  }
  server->Stop();
  return result;
}

// Fraction of queries the O(1) labels decided outright — no cache hit,
// no search.
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

// One machine-readable line per workload run, with stable keys.
void EmitJsonLine(const char* workload, const ServeResult& run) {
  const ReachStats& s = run.stats.merged;
  const double queries = static_cast<double>(std::max<int64_t>(s.queries, 1));
  std::cout << "{\"bench\":\"reach_workloads\",\"workload\":\"" << workload
            << "\",\"queries\":" << s.queries
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

  const int32_t cores = static_cast<int32_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int32_t> thread_counts;
  for (const int32_t threads : {1, 2, 4, 8, 16}) {
    if (threads <= cores) thread_counts.push_back(threads);
  }
  std::cout << "Multi-threaded reach serving scalability: " << family.name
            << " (F=" << family.avg_out_degree
            << ", l=" << family.locality << "), " << num_queries
            << " queries per point, batches of 256, " << kScalingRepeats
            << " interleaved timings per thread count (medians, speedup "
               "quartiles)\n\n";

  // One point per thread count: its qps and speedup per repeat, and the
  // merged stats of all of its runs.
  struct ScalingPoint {
    std::vector<double> qps;
    std::vector<double> speedup;
    LatencyHistogram latency;
    int64_t queries = 0;
    int64_t decided_without_fallback = 0;
  };
  std::vector<ScalingPoint> points(thread_counts.size());
  for (int repeat = 0; repeat < kScalingRepeats; ++repeat) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      const int32_t threads = thread_counts[t];
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
      ScalingPoint& point = points[t];
      point.qps.push_back(report.value().QueriesPerSecond());
      const double baseline_qps = points[0].qps.back();
      point.speedup.push_back(
          baseline_qps <= 0 ? 0.0 : point.qps.back() / baseline_qps);
      const ReachServerStats stats = server.value()->Snapshot();
      point.latency.Merge(stats.latency);
      point.queries += stats.merged.queries;
      point.decided_without_fallback += stats.merged.DecidedWithoutFallback();
      server.value()->Stop();
    }
  }

  TablePrinter table({"threads", "qps", "speedup", "speedup_q1",
                      "speedup_q3", "mean_us", "p50_us", "p99_us",
                      "fallback_pct", "speedup>=0.7T"});
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const int32_t threads = thread_counts[t];
    const ScalingPoint& point = points[t];
    const double speedup = Quantile(point.speedup, 0.5);
    const double fallback_pct =
        point.queries == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(point.queries -
                                      point.decided_without_fallback) /
                  static_cast<double>(point.queries);
    table.NewRow()
        .AddCell(static_cast<int64_t>(threads))
        .AddCell(Quantile(point.qps, 0.5), 0)
        .AddCell(speedup, 2)
        .AddCell(Quantile(point.speedup, 0.25), 2)
        .AddCell(Quantile(point.speedup, 0.75), 2)
        .AddCell(point.latency.MeanSeconds() * 1e6, 2)
        .AddCell(point.latency.QuantileSeconds(0.50) * 1e6, 2)
        .AddCell(point.latency.QuantileSeconds(0.99) * 1e6, 2)
        .AddCell(fallback_pct, 2)
        .AddCell(std::string(speedup >= 0.7 * threads ? "yes" : "no"));
  }
  table.Print(std::cout);
  table.WriteCsv("reach_mt_scaling");

  // ---- Act 2: workload mixes on the search core ------------------------
  const int64_t workload_queries =
      GetEnvInt("REACH_MT_WORKLOAD_QUERIES", quick ? 8000 : 60000);
  const int32_t serve_threads = 4;

  ReachIndexOptions search_options;
  search_options.backend = ReachBackend::kLabels;
  auto search_core = ReachCore::Build(arcs, params.num_nodes, search_options);
  if (!search_core.ok()) {
    std::cerr << "core: " << search_core.status().ToString() << "\n";
    return 1;
  }
  // The adversarial mix is what the core's O(1) rules cannot decide.
  const WorkloadDecideProbe probe = MakeLadderProbe(search_core.value());
  const std::vector<std::vector<NodeId>> closure = ReferenceClosure(graph);

  std::cout << "\nWorkload mixes on the search core: " << workload_queries
            << " queries each, " << serve_threads
            << " clients (JSON lines below)\n\n";

  TablePrinter mix_table({"workload", "decided_pct", "label_pct",
                          "cache_pct", "search_pct", "p50_us", "p99_us",
                          "wrong"});
  int64_t wrong = 0;
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
    const std::vector<std::pair<NodeId, NodeId>> mix =
        MakeModelWorkload(graph, traffic_options, workload_queries, probe);

    auto run = ServeWorkload(search_core.value(), mix, serve_threads, closure);
    if (!run.ok()) {
      std::cerr << name << ": " << run.status().ToString() << "\n";
      return 1;
    }
    const ReachStats& s = run.value().stats.merged;
    const double queries =
        static_cast<double>(std::max<int64_t>(s.queries, 1));
    mix_table.NewRow()
        .AddCell(std::string(name))
        .AddCell(100.0 * static_cast<double>(s.DecidedWithoutFallback()) /
                     queries,
                 2)
        .AddCell(100.0 * LabelDecidedRate(s), 2)
        .AddCell(100.0 * s.CacheHitRate(), 2)
        .AddCell(100.0 *
                     static_cast<double>(s.queries -
                                         s.DecidedWithoutFallback()) /
                     queries,
                 2)
        .AddCell(run.value().stats.latency.QuantileSeconds(0.50) * 1e6, 2)
        .AddCell(run.value().stats.latency.QuantileSeconds(0.99) * 1e6, 2)
        .AddCell(run.value().wrong);
    EmitJsonLine(name, run.value());
    wrong += run.value().wrong;
  }
  std::cout << "\n";
  mix_table.Print(std::cout);
  mix_table.WriteCsv("reach_workloads");

  // ---- The gate --------------------------------------------------------
  if (wrong > 0) {
    std::cerr << "FAIL: " << wrong
              << " answers differ from the reference closure\n";
    return 1;
  }
  std::cout << "PASS: every answer matches the reference closure\n";
  return 0;
}

}  // namespace
}  // namespace tcdb

int main() { return tcdb::RunBench(); }

// bench_reach — Online reachability serving over the study's 12 graph
// families (Table 2: n = 2000, F in {2, 5, 20, 50}, l in {20, 200, 2000}):
// build the default core per family (chain labels where their frontier
// fits the byte budget, the label index elsewhere; the "core" column) and
// serve three point-query mixes, then report which rung of the serving
// ladder decided the traffic and what each rung cost. The interesting output is the *why* column split — the
// paper's own PTC results (Figures 8/14) show selective point lookups are
// a distinct regime, and this bench shows how much of that regime never
// touches the closure machinery at all.
//
// Mixes:
//   uniform - independent uniform (src, dst) pairs (mostly unreachable on
//             sparse families), served in batches of 256;
//   walks   - positive-biased pairs sampled by random forward walks,
//             served in batches of 256;
//   skewed  - a small hot set of pairs queried repeatedly one at a time
//             (exercises the LRU answer cache).

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/catalog.h"
#include "graph/digraph.h"
#include "graph/generator.h"
#include "reach/reach_service.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tcdb {
namespace {

constexpr int kQueriesPerMix = 3000;
constexpr size_t kBatchSize = 256;

std::vector<std::pair<NodeId, NodeId>> UniformPairs(NodeId n, int count,
                                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.Uniform(0, n - 1)),
                       static_cast<NodeId>(rng.Uniform(0, n - 1)));
  }
  return pairs;
}

// Positive-biased: walk forward 1..8 random arcs from a random start.
std::vector<std::pair<NodeId, NodeId>> WalkPairs(const Digraph& graph,
                                                 int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  const NodeId n = graph.NumNodes();
  while (static_cast<int>(pairs.size()) < count) {
    NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    NodeId v = u;
    const int64_t steps = rng.Uniform(1, 8);
    for (int64_t s = 0; s < steps; ++s) {
      const std::span<const NodeId> succ = graph.Successors(v);
      if (succ.empty()) break;
      v = succ[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(succ.size()) - 1))];
    }
    if (v != u) pairs.emplace_back(u, v);
  }
  return pairs;
}

std::vector<std::pair<NodeId, NodeId>> SkewedPairs(NodeId n, int count,
                                                   uint64_t seed) {
  Rng rng(seed);
  const auto hot = UniformPairs(n, 100, seed ^ 0x9e3779b9);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (int i = 0; i < count; ++i) {
    pairs.push_back(hot[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(hot.size()) - 1))]);
  }
  return pairs;
}

int RunBench() {
  std::cout << "Online reachability serving: the 12 graph families x "
               "three query mixes ("
            << kQueriesPerMix << " queries each)\n\n";
  TablePrinter table({"family", "F", "l", "arcs", "core", "build ms", "mix",
                      "reach %", "O(1) %", "bfs %", "cache %",
                      "us/query"});
  ReachStats aggregate;
  for (const GraphFamily& family : GraphCatalog()) {
    const GeneratorParams params = CatalogParams(family, 0);
    const ArcList arcs = GenerateDag(params);
    const Digraph graph(params.num_nodes, arcs);

    WallTimer build_timer;
    auto service = ReachService::Build(arcs, params.num_nodes);
    if (!service.ok()) {
      std::cerr << family.name << ": " << service.status().ToString()
                << "\n";
      return 1;
    }
    const double build_ms = build_timer.ElapsedSeconds() * 1e3;

    struct Mix {
      const char* name;
      std::vector<std::pair<NodeId, NodeId>> pairs;
      bool batched;
    };
    const std::vector<Mix> mixes = {
        {"uniform", UniformPairs(params.num_nodes, kQueriesPerMix, 11),
         true},
        {"walks", WalkPairs(graph, kQueriesPerMix, 12), true},
        {"skewed", SkewedPairs(params.num_nodes, kQueriesPerMix, 13),
         false},
    };
    for (const Mix& mix : mixes) {
      service.value()->ResetStats();
      if (mix.batched) {
        for (size_t begin = 0; begin < mix.pairs.size();
             begin += kBatchSize) {
          const size_t len =
              std::min(kBatchSize, mix.pairs.size() - begin);
          auto batch = service.value()->QueryBatch(
              {mix.pairs.data() + begin, len});
          if (!batch.ok()) {
            std::cerr << batch.status().ToString() << "\n";
            return 1;
          }
        }
      } else {
        for (const auto& [u, v] : mix.pairs) {
          auto answer = service.value()->Query(u, v);
          if (!answer.ok()) {
            std::cerr << answer.status().ToString() << "\n";
            return 1;
          }
        }
      }
      const ReachStats& stats = service.value()->stats();
      const double q = static_cast<double>(stats.queries);
      const int64_t bfs = stats.RuleDecided(ReachRule::kPrunedBfs);
      const int64_t cache = stats.RuleDecided(ReachRule::kCacheHit);
      table.NewRow()
          .AddCell(family.name)
          .AddCell(family.avg_out_degree)
          .AddCell(family.locality)
          .AddCell(static_cast<int64_t>(arcs.size()))
          .AddCell(std::string(service.value()->core().backend ==
                                       ReachBackend::kChain
                                   ? "chain"
                                   : "labels"))
          .AddCell(build_ms, 2)
          .AddCell(std::string(mix.name))
          .AddCell(100.0 * stats.positive_answers / q, 1)
          .AddCell(100.0 * (stats.DecidedWithoutFallback() - cache) / q, 1)
          .AddCell(100.0 * bfs / q, 1)
          .AddCell(100.0 * cache / q, 1)
          .AddCell(stats.TotalSeconds() * 1e6 / q, 2);
      aggregate.Merge(stats);
    }
  }
  table.Print(std::cout);
  table.WriteCsv("reach_families");

  std::cout << "\nAggregate per-stage decision/latency profile ("
            << aggregate.queries << " queries):\n";
  aggregate.Print(std::cout);
  std::cout
      << "\nReading the table: \"O(1) %\" is the share the precomputed "
         "labels decided (chain frontiers on a chain core, which decide "
         "everything; otherwise the id order and the 64 root words); the "
         "exact search serves only the residue, which is why point "
         "queries stay microseconds even on the dense families.\n";
  return 0;
}

}  // namespace
}  // namespace tcdb

int main() { return tcdb::RunBench(); }

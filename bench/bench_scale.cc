// bench_scale — the million-node scale substrate: chain-decomposition
// reachability index over the streaming graph families. Pins the numbers
// the ISSUE's acceptance rests on:
//
//   - build time at n = 10^5 and 10^6 (layered and scale-free), and the
//     near-linearity check: at fixed width, doubling n must not grow the
//     build by more than ~2.5x (the row pair 5*10^5 vs 10^6 prints the
//     ratio of their median build times over three builds each);
//   - label memory in bytes/node (~ 4k + 20 for k chains) plus the chain
//     count k against the family's width knob;
//   - query latency p50/p99 over uniform random pairs (every query is
//     O(width) worst case, O(1) array probes in practice);
//   - merge work: arcs skipped by the transitive-reduction rule;
//   - the process's AnonHugePages bytes while the index is live (-1 when
//     unreadable): the label arrays sit on 2 MiB pages where the host's
//     THP mode allows.
//
// The scale-free family at 10^6 runs with locality 64: the locality
// window bounds the antichain width, and 64 keeps k (hence bytes/node)
// in the same regime as the layered runs. Kronecker is deliberately
// absent here: its heavy tail leaves many nodes with dead forward cones,
// so its true width — and the label bill of ANY chain decomposition —
// grows with n; that family exists to exercise the max_label_bytes
// guard, not the build rate.

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/scale_generator.h"
#include "scale/chain_index.h"
#include "util/huge_page_allocator.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tcdb {
namespace {

constexpr int kQueries = 200000;

struct RunResult {
  double build_seconds = 0;
  double gen_seconds = 0;
  int64_t arcs = 0;
  int32_t num_chains = 0;
  double bytes_per_node = 0;
  double p50_us = 0;
  double p99_us = 0;
  double positive_share = 0;
  int64_t merges_skipped = 0;
  int64_t anon_huge_pages_bytes = -1;
};

// Generates the family, builds its index `build_repeats` times (keeping
// the last; build_seconds is the median time) and times the queries.
RunResult RunFamily(const ScaleGraphParams& params, int build_repeats = 1) {
  RunResult result;
  WallTimer timer;
  const Digraph dag = BuildScaleGraph(params);
  result.gen_seconds = timer.ElapsedSeconds();
  result.arcs = dag.NumArcs();

  std::vector<double> build_seconds;
  for (int r = 1; r < build_repeats; ++r) {
    timer.Restart();
    const auto discarded = ChainIndex::Build(dag);
    build_seconds.push_back(timer.ElapsedSeconds());
    TCDB_CHECK(discarded.ok()) << discarded.status().ToString();
  }
  timer.Restart();
  auto built = ChainIndex::Build(dag);
  build_seconds.push_back(timer.ElapsedSeconds());
  TCDB_CHECK(built.ok()) << built.status().ToString();
  std::sort(build_seconds.begin(), build_seconds.end());
  result.build_seconds = build_seconds[build_seconds.size() / 2];
  const ChainIndex& index = built.value();
  result.num_chains = index.num_chains();
  result.bytes_per_node = index.BytesPerNode();
  result.merges_skipped = index.merges_skipped();
  result.anon_huge_pages_bytes = AnonHugePagesBytes();

  // Per-query latency over uniform pairs. Timing each probe individually
  // would measure the clock, not the index; instead 64-query blocks are
  // timed and every query in a block is attributed the block mean — at
  // ~ns/query granularity the block mean IS the per-query cost.
  Rng rng(params.seed ^ 0xc0ffee);
  const NodeId n = dag.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs(kQueries);
  for (auto& [u, v] : pairs) {
    u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    v = static_cast<NodeId>(rng.Uniform(0, n - 1));
  }
  constexpr int kBlock = 64;
  std::vector<double> block_us;
  block_us.reserve(kQueries / kBlock);
  int64_t positive = 0;
  for (int begin = 0; begin + kBlock <= kQueries; begin += kBlock) {
    WallTimer block_timer;
    for (int i = begin; i < begin + kBlock; ++i) {
      positive += index.Reaches(pairs[i].first, pairs[i].second) ? 1 : 0;
    }
    block_us.push_back(block_timer.ElapsedSeconds() * 1e6 / kBlock);
  }
  std::sort(block_us.begin(), block_us.end());
  result.p50_us = block_us[block_us.size() / 2];
  result.p99_us = block_us[block_us.size() * 99 / 100];
  // Reporting the answers keeps the query loop observable — an unused
  // accumulator lets the compiler delete the loop and time nothing.
  result.positive_share = static_cast<double>(positive) / kQueries;
  return result;
}

void AddRow(TablePrinter* table, const ScaleGraphParams& params,
            const RunResult& result) {
  table->NewRow()
      .AddCell(ScaleFamilyName(params.family))
      .AddCell(static_cast<int64_t>(params.num_nodes))
      .AddCell(result.arcs)
      .AddCell(params.family == ScaleFamily::kScaleFree
                   ? static_cast<int64_t>(params.locality)
                   : static_cast<int64_t>(params.width))
      .AddCell(result.num_chains)
      .AddCell(result.gen_seconds, 3)
      .AddCell(result.build_seconds, 3)
      .AddCell(result.bytes_per_node, 1)
      .AddCell(result.p50_us, 4)
      .AddCell(result.p99_us, 4)
      .AddCell(result.positive_share, 3)
      .AddCell(result.merges_skipped)
      .AddCell(result.anon_huge_pages_bytes);
}

}  // namespace
}  // namespace tcdb

int main() {
  using namespace tcdb;

  TablePrinter table({"family", "n", "arcs", "width", "k", "gen_s",
                      "build_s", "B/node", "q_p50_us", "q_p99_us", "pos",
                      "skipped", "anon_huge_pages_bytes"});

  // The acceptance grid: layered and scale-free at 10^5 and 10^6.
  std::vector<ScaleGraphParams> grid;
  for (const NodeId n : {100000, 1000000}) {
    ScaleGraphParams layered;
    layered.family = ScaleFamily::kLayered;
    layered.num_nodes = n;
    layered.width = 64;
    layered.degree = 4;
    grid.push_back(layered);

    ScaleGraphParams scale_free;
    scale_free.family = ScaleFamily::kScaleFree;
    scale_free.num_nodes = n;
    scale_free.degree = 4;
    scale_free.locality = 64;
    grid.push_back(scale_free);
  }
  for (const ScaleGraphParams& params : grid) {
    AddRow(&table, params, RunFamily(params));
  }

  // Near-linearity pair: same family, same width, n doubled. The build
  // ratio is the scaling exponent in one number (2.0 = perfectly linear).
  // Each side is the median of three builds: a single build of 5*10^5
  // nodes takes a few tenths of a second, short enough for run-to-run
  // noise alone to move one ratio across the bound.
  ScaleGraphParams half;
  half.family = ScaleFamily::kLayered;
  half.num_nodes = 500000;
  half.width = 64;
  half.degree = 4;
  ScaleGraphParams full = half;
  full.num_nodes = 1000000;
  constexpr int kBuildRepeats = 3;
  const RunResult half_result = RunFamily(half, kBuildRepeats);
  const RunResult full_result = RunFamily(full, kBuildRepeats);
  AddRow(&table, half, half_result);
  AddRow(&table, full, full_result);
  table.Print(std::cout);

  const double ratio = full_result.build_seconds / half_result.build_seconds;
  std::cout << "\nnear-linearity: layered width=64 median build of "
            << kBuildRepeats << ", 5e5 -> 1e6: "
            << full_result.build_seconds << "s / "
            << half_result.build_seconds << "s = " << ratio
            << "x (target <= 2.5x)\n";
  return ratio <= 2.5 ? 0 : 1;
}

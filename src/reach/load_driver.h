#ifndef TCDB_REACH_LOAD_DRIVER_H_
#define TCDB_REACH_LOAD_DRIVER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/reach_server.h"
#include "util/status.h"
#include "workload/traffic_model.h"

namespace tcdb {

// Multi-threaded client harness for ReachServer throughput measurement,
// shared by `tcdb_cli serve-bench` and bench/bench_reach_mt. Not part of
// the serving path itself — it only generates load and aggregates timing.

// A reproducible point-query workload over `graph`: 60% independent
// uniform pairs (mostly unreachable on sparse families), 30%
// positive-biased pairs sampled by short random forward walks, 10%
// repeats of a small hot set (exercises the per-shard answer caches).
std::vector<std::pair<NodeId, NodeId>> MakeServingWorkload(
    const Digraph& graph, int64_t count, uint64_t seed);

// A workload drawn from the TrafficModel (workload/traffic_model.h):
// Zipf-skewed, hot-pair, adversarial, or mixed query streams with
// deterministic replay. `probe` feeds the adversarial miner; the other
// kinds ignore it. This is the model-driven superset of
// MakeServingWorkload, which predates the model and stays for the
// benches pinned to its exact mix.
std::vector<std::pair<NodeId, NodeId>> MakeModelWorkload(
    const Digraph& graph, const TrafficModelOptions& options, int64_t count,
    WorkloadDecideProbe probe = nullptr);

// The serving ladder's O(1) rungs as a predicate over input-node pairs:
// ReachCore::Decide (trivial rules, index labels, adjacency, and the
// observation battery when the core carries one). This is what the
// adversarial miner probes: pairs it cannot decide are exactly the
// fallback residue. The returned closure shares ownership of `core`.
WorkloadDecideProbe MakeLadderProbe(std::shared_ptr<const ReachCore> core);

struct LoadReport {
  int64_t queries = 0;
  double seconds = 0;
  double QueriesPerSecond() const {
    return seconds <= 0 ? 0 : static_cast<double>(queries) / seconds;
  }
};

// Fires `pairs` at the server from `num_clients` threads, each submitting
// contiguous QueryBatch calls of `batch_size` over its slice of the
// workload, and reports wall time for the whole volley. Answers are
// discarded (correctness belongs to the differential tests); any query
// error aborts the run and is returned.
Result<LoadReport> RunServingLoad(
    ReachServer* server, std::span<const std::pair<NodeId, NodeId>> pairs,
    int32_t num_clients, size_t batch_size);

}  // namespace tcdb

#endif  // TCDB_REACH_LOAD_DRIVER_H_

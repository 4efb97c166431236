#ifndef TCDB_DYNAMIC_MUTATION_STRESS_H_
#define TCDB_DYNAMIC_MUTATION_STRESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace tcdb {

// Configuration of one randomized mutation differential run. Each seed
// draws a graph family point (n, F, l, back-arc count), then replays a
// mixed insert/delete/query trace through the full dynamic stack
// (MutationLog -> DynamicReachService with a periodically re-published
// IndexRebuilder snapshot) while an in-memory adjacency mirror answers
// every query by plain BFS. Any divergence — an answer, a mutation
// status, or the final live adjacency — fails the run. This is the
// harness check.sh runs 50-seed under ASan/UBSan.
struct MutationStressOptions {
  int32_t num_seeds = 50;
  uint64_t base_seed = 1;
  int32_t ops_per_seed = 400;
  // Sampled axes of the graph family grid.
  std::vector<int32_t> node_counts = {60, 120, 240};
  std::vector<int32_t> out_degrees = {2, 5, 20};
  std::vector<int32_t> localities = {10, 50, 200};
  // Per-op probability of an insert / a delete; the rest are queries.
  double insert_share = 0.35;
  double delete_share = 0.20;
  // Ops between synchronous RebuildNow calls (0 = never rebuild: the
  // snapshot stays at the base graph for the whole trace).
  int32_t rebuild_every = 64;
  // Epoch-boundary validation cadence: after every `validate_every`-th
  // accepted mutation, `validate_pairs` sampled pairs are checked
  // against the reference closure AT THAT EPOCH — so a bug that a later
  // mutation would mask is caught at the epoch it happened, even in
  // query-free stretches of the trace. 0 restores the old behaviour
  // (validation only at the trace's own query ops and the final state).
  // The sampling draws come from a stream independent of the op stream,
  // so changing the cadence never changes the trace itself.
  int32_t validate_every = 1;
  int32_t validate_pairs = 8;
  // Progress sink, called once per seed; may be empty.
  std::function<void(const std::string&)> log;
};

// The failing configuration, plus the diagnostic of its failure.
struct MutationStressFailure {
  uint64_t seed = 0;
  int32_t num_nodes = 0;
  int32_t avg_out_degree = 0;
  int32_t locality = 0;
  int32_t num_back_arcs = 0;
  int64_t op_index = -1;  // -1: failed outside the trace (setup/final)
  std::string diagnostic;

  std::string ToString() const;
};

struct MutationStressReport {
  int64_t seeds = 0;
  int64_t inserts = 0;
  int64_t deletes = 0;
  int64_t queries = 0;
  int64_t snapshot_served = 0;
  int64_t incremental_served = 0;
  int64_t escalations = 0;
  int64_t snapshots_adopted = 0;
  // Epoch-boundary validations performed (one per validate_every-th
  // mutation, each checking validate_pairs sampled pairs).
  int64_t epoch_validations = 0;
  // FNV-1a digest over every trace-op query (u, v, answer) triple, in
  // trace order across all seeds. Identical traces must produce the
  // identical digest regardless of serving configuration (pivot count,
  // cache size) — only the rule mix and CPU may differ.
  uint64_t answer_digest = 0x811c9dc5;
};

// Runs the sweep. Ok when every seed's trace matched the reference mirror
// end to end; Internal carrying `failure->ToString()` on the first
// divergence. `report` and `failure` may be null.
Status RunMutationStress(const MutationStressOptions& options,
                         MutationStressReport* report,
                         MutationStressFailure* failure);

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_MUTATION_STRESS_H_

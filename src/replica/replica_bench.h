#ifndef TCDB_REPLICA_REPLICA_BENCH_H_
#define TCDB_REPLICA_REPLICA_BENCH_H_

#include <cstddef>
#include <cstdint>

#include "graph/generator.h"
#include "util/status.h"

namespace tcdb {

// One measured replication configuration, shared by `tcdb_cli
// replicate-bench` and bench/bench_replica: a Primary on a MemFs, N
// followers on their own MemFs disks over in-process pipes, client
// threads firing the load_driver workload at the followers while the
// primary's owner thread drives a mutation + heartbeat trace and
// samples follower staleness.
struct ReplicaBenchOptions {
  GeneratorParams graph{/*num_nodes=*/1500, /*avg_out_degree=*/4,
                        /*locality=*/100, /*seed=*/7};
  int32_t num_followers = 2;
  int32_t clients_per_follower = 2;
  int64_t queries_per_follower = 20000;
  size_t batch_size = 32;
  // Mutations driven on the primary concurrently with the query volley.
  int64_t mutations = 1500;
  int64_t heartbeat_every = 32;
  // Mutations between staleness samples (each sample records
  // primary epoch - served epoch for every follower).
  int64_t lag_sample_every = 8;
  // Follower staleness bound (FollowerOptions::max_apply_ahead).
  int64_t max_apply_ahead = 128;
  size_t pipe_capacity_bytes = 1 << 14;
  int32_t group_commit_records = 8;
  uint64_t seed = 42;
};

struct ReplicaBenchResult {
  int32_t num_followers = 0;
  int64_t queries = 0;
  double query_seconds = 0;
  double QueriesPerSecond() const {
    return query_seconds <= 0 ? 0
                              : static_cast<double>(queries) / query_seconds;
  }
  int64_t mutations_applied = 0;
  double mutate_seconds = 0;
  int64_t records_shipped = 0;
  int64_t heartbeats_sent = 0;
  int64_t forced_refreshes = 0;
  // Staleness (primary epoch - served epoch) percentiles over every
  // (sample, follower) pair taken during the mutation trace.
  int64_t lag_samples = 0;
  int64_t lag_p50 = 0;
  int64_t lag_p90 = 0;
  int64_t lag_p99 = 0;
  int64_t lag_max = 0;
  // The configured bound the samples must respect: max_apply_ahead +
  // the transport's in-flight record capacity + rebuild slack.
  int64_t lag_bound = 0;
  bool lag_within_bound = true;
};

// Runs one configuration to completion (every query answered, every
// mutation applied, final read barrier on every follower).
Result<ReplicaBenchResult> RunReplicaBench(const ReplicaBenchOptions& options);

}  // namespace tcdb

#endif  // TCDB_REPLICA_REPLICA_BENCH_H_

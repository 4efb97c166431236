#ifndef TCDB_PERSIST_CRASH_HARNESS_H_
#define TCDB_PERSIST_CRASH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace tcdb {

// Configuration of one randomized kill-and-recover differential run. Each
// seed draws a graph family point, builds a DurableDynamicService on an
// in-memory filesystem, arms a FaultFs to kill the "process" at a random
// mutating syscall (optionally tearing the dying write), replays a mixed
// insert/delete/query/checkpoint trace against an in-memory reference
// mirror until the crash fires, then recovers from the surviving disk
// image and checks:
//   - the recovered epoch is exactly the pre-crash epoch (the one
//     in-flight mutation may land on either side of the cut — both are
//     legal crash outcomes, and the reference is adjusted accordingly);
//   - recovery replayed only the WAL suffix past the newest durable
//     checkpoint (replayed_entries == recovered_epoch − checkpoint_epoch,
//     and the checkpoint is at least the last one the trace completed) —
//     never a full-history rebuild;
//   - every post-recovery answer and every live successor row matches
//     the reference;
//   - the service keeps serving and mutating correctly after recovery;
//   - a second recovery of the same state is idempotent and replays
//     nothing after the post-recovery checkpoint.
// This is the harness check.sh runs 50-seed under ASan/UBSan.
struct CrashStressOptions {
  int32_t num_seeds = 50;
  uint64_t base_seed = 1;
  int32_t ops_per_seed = 300;
  // Sampled axes of the graph family grid (kept smaller than the
  // mutation-stress grid: every seed pays a label build per checkpoint).
  std::vector<int32_t> node_counts = {40, 80, 160};
  std::vector<int32_t> out_degrees = {2, 4};
  std::vector<int32_t> localities = {10, 50};
  // Per-op probability of an insert / a delete; the rest are queries.
  double insert_share = 0.45;
  double delete_share = 0.25;
  // Ops between Checkpoint() calls during the trace (0 = only the
  // implicit checkpoint 0).
  int32_t checkpoint_every = 64;
  // Differential queries after each recovery, and trace ops continued on
  // the recovered service before the double-recovery check.
  int32_t queries_after_recovery = 40;
  int32_t ops_after_recovery = 20;
  // Progress sink, called once per seed; may be empty.
  std::function<void(const std::string&)> log;
};

struct CrashStressFailure {
  uint64_t seed = 0;
  int32_t num_nodes = 0;
  int32_t avg_out_degree = 0;
  int32_t locality = 0;
  int32_t num_back_arcs = 0;
  int64_t op_index = -1;  // -1: failed outside the trace
  std::string diagnostic;

  std::string ToString() const;
};

struct CrashStressReport {
  int64_t seeds = 0;
  int64_t crashes_injected = 0;  // seeds whose armed fault actually fired
  int64_t torn_writes = 0;       // crashes that tore the dying write
  int64_t ops_applied = 0;       // accepted mutations before the crash
  int64_t checkpoints_completed = 0;
  int64_t replayed_entries = 0;
  int64_t stale_entries_skipped = 0;
  int64_t torn_tails_repaired = 0;  // recoveries that dropped torn bytes
  int64_t queries_checked = 0;
};

// Runs the sweep. Ok when every seed recovered to the exact reference
// state; Internal carrying `failure->ToString()` on the first divergence.
// `report` and `failure` may be null.
Status RunCrashStress(const CrashStressOptions& options,
                      CrashStressReport* report,
                      CrashStressFailure* failure);

}  // namespace tcdb

#endif  // TCDB_PERSIST_CRASH_HARNESS_H_

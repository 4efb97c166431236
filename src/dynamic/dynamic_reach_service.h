#ifndef TCDB_DYNAMIC_DYNAMIC_REACH_SERVICE_H_
#define TCDB_DYNAMIC_DYNAMIC_REACH_SERVICE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "dynamic/dynamic_stats.h"
#include "dynamic/incremental.h"
#include "dynamic/mutation_log.h"
#include "reach/lru_cache.h"
#include "reach/reach_service.h"
#include "reach/reach_stats.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace tcdb {

struct DynamicReachOptions {
  // Label build of the (periodically rebuilt) frozen snapshot.
  ReachIndexOptions index;
  // LRU answer-cache entries; 0 disables. Entries are invalidated (via a
  // generation bump) by every mutation and every snapshot adoption.
  size_t cache_capacity = 4096;
  // The incremental-decided tier: per-pivot forward/backward
  // reachability trees repaired on every mutation, consulted as an O(k)
  // exact decide between the frozen-snapshot ladder and the live BFS,
  // and used to prune that BFS. num_pivots = 0 keeps no trees: every
  // query past the snapshot epoch runs an unpruned live BFS (same
  // answers, different CPU).
  IncrementalOptions incremental_options;
};

// Fully dynamic reachability serving over a MutationLog. The ladder is
//
//   answer cache -> frozen snapshot (only at the snapshot epoch)
//                -> incremental-decided -> live BFS
//
// While no mutation has landed since the serving snapshot was built
// (log epoch == snapshot epoch) the snapshot IS the live graph, and
// ReachCore::Decide answers, with an exact pruned BFS over the
// condensation for the residue. Past that epoch the snapshot is stale,
// and the query goes to the incremental tier: per-pivot forward/backward
// reachability trees (IncrementalIndex) repaired inside every mutation
// answer a battery of observations, one word test over all pivots, that
// is exact at the live epoch. What they leave undecided is settled by a
// BFS over the log's in-memory LiveAdjacency on original node ids
// (deletions may have split snapshot SCCs, so the stale condensation is
// never consulted), pruned by the same trees: a node y with
// Decide(y, v) == kNo is a dead end and is not expanded, one with kYes
// ends the search with YES (DESIGN.md §11). Every query is recorded under
// the one rule that decided it.
//
// Threading: mutations and queries belong to one owner thread (they
// touch the log's adjacency, the trees, the cache and the stats).
// PublishSnapshot is the one cross-thread entry point — the background
// IndexRebuilder hands rebuilt cores to it; the owner adopts the newest
// pending core at its next query (or via AdoptPublishedSnapshot), which
// bumps the cache generation in the same step, so no answer computed
// against a retired snapshot is ever served.
class DynamicReachService {
 public:
  using Answer = ReachService::Answer;
  using Epoch = MutationLog::Epoch;

  // Builds the initial snapshot from the log's current state. The log
  // must outlive the service; the service becomes the owner-thread reader
  // of the log's adjacency. When `snapshot` is non-null it
  // is adopted as the initial core instead of building one — the recovery
  // path passes the deserialized checkpoint core, which must have been
  // built at exactly the log's base state (and must cover the log's node
  // universe; InvalidArgument otherwise). Its epoch is taken to be the
  // log's current epoch. InvalidArgument as well when the incremental
  // options ask for more than IncrementalIndex::kMaxPivots pivots
  // (num_pivots, or distinct pinned_pivots) or pin an out-of-range node.
  static Result<std::unique_ptr<DynamicReachService>> Create(
      MutationLog* log, const DynamicReachOptions& options = {},
      std::shared_ptr<const ReachCore> snapshot = nullptr);

  // Mutations: forwarded to the log (same preconditions), then the
  // answer cache is invalidated. Return the new epoch.
  Result<Epoch> InsertArc(NodeId src, NodeId dst);
  Result<Epoch> DeleteArc(NodeId src, NodeId dst);

  // Replays one logged entry (the WAL recovery path): exactly InsertArc
  // or DeleteArc.
  Result<Epoch> ApplyLogged(const MutationLog::Entry& entry);

  // Answers reaches(src, dst) on the live graph at the current epoch.
  // Adopts any pending snapshot first. InvalidArgument on out-of-range
  // endpoints.
  Result<Answer> Query(NodeId src, NodeId dst);

  // Rebuilder-facing publication slot (thread-safe). `epoch` is the log
  // epoch `core` was built from; `rebuild_seconds` is attributed to the
  // stats when the owner adopts. The core must cover the log's node
  // universe.
  void PublishSnapshot(std::shared_ptr<const ReachCore> core, Epoch epoch,
                       double rebuild_seconds);

  // Owner thread: installs the newest pending snapshot, if any. Returns
  // true when a snapshot was adopted (cache generation bumped).
  bool AdoptPublishedSnapshot();

  // True when the incremental tier's repair-cost estimate says a full
  // rebuild is now cheaper than continuing to repair — the
  // IndexRebuilder's advise hook (safe from any thread; always false
  // without pivots).
  bool RebuildAdvised() const { return incremental_->rebuild_advised(); }
  const IncrementalIndex& incremental() const { return *incremental_; }

  const DynamicStats& stats() const { return stats_; }
  // Per-rule serving breakdown of every query; the dynamic paths record
  // under ReachRule::kIncremental / kLiveBfs.
  const ReachStats& serving_stats() const { return serving_stats_; }
  Epoch snapshot_epoch() const { return snapshot_epoch_; }
  const ReachCore& snapshot() const { return *snapshot_; }
  // Shared handle to the serving core (the checkpointer reuses it when it
  // was built at the current epoch, avoiding a redundant rebuild).
  std::shared_ptr<const ReachCore> snapshot_shared() const {
    return snapshot_;
  }
  MutationLog* log() { return log_; }
  NodeId num_nodes() const { return log_->num_nodes(); }

 private:
  DynamicReachService() : cache_(0) {}

  // Exact reachability on the snapshot (valid at the snapshot epoch):
  // ReachCore::Decide, then an unbounded pruned BFS over the
  // condensation.
  Answer SnapshotDecide(NodeId u, NodeId v);

  // BFS over the log's live adjacency, original node ids, pruned by the
  // incremental trees. Leaves every node it queued in live_frontier_.
  bool LiveReaches(NodeId u, NodeId v);

  // Mirrors the incremental tier's maintenance counters into stats_.
  void SyncIncrementalStats();

  MutationLog* log_ = nullptr;
  DynamicReachOptions options_;

  std::shared_ptr<const ReachCore> snapshot_;
  Epoch snapshot_epoch_ = 0;

  // The incremental-decided tier: exact on the live graph, repaired
  // inside every mutation.
  std::unique_ptr<IncrementalIndex> incremental_;

  ReachAnswerCache cache_;
  ReachIndex::SearchScratch snapshot_scratch_;  // snapshot BFS buffers
  EpochSet live_visited_;                       // original-id BFS set
  std::vector<NodeId> live_frontier_;

  DynamicStats stats_;
  ReachStats serving_stats_;

  // Publication slot (the only cross-thread state).
  std::mutex pending_mu_;
  std::shared_ptr<const ReachCore> pending_core_;
  Epoch pending_epoch_ = 0;
  double pending_seconds_sum_ = 0.0;
  double pending_seconds_last_ = 0.0;
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_DYNAMIC_REACH_SERVICE_H_

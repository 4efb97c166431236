#include "dynamic/dynamic_reach_service.h"

#include <chrono>
#include <string>
#include <unordered_set>
#include <utility>

namespace tcdb {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The pivot count fits the membership words and every pinned pivot is a
// node of the log.
Status ValidatePivots(const IncrementalOptions& options, NodeId num_nodes) {
  const std::string cap = std::to_string(IncrementalIndex::kMaxPivots);
  if (options.num_pivots > IncrementalIndex::kMaxPivots) {
    return Status::InvalidArgument(
        "num_pivots " + std::to_string(options.num_pivots) +
        " exceeds the cap of " + cap);
  }
  std::unordered_set<NodeId> distinct;
  for (const NodeId p : options.pinned_pivots) {
    if (p < 0 || p >= num_nodes) {
      return Status::InvalidArgument(
          "pinned pivot " + std::to_string(p) + " out of range with " +
          std::to_string(num_nodes) + " nodes");
    }
    distinct.insert(p);
  }
  if (distinct.size() > static_cast<size_t>(IncrementalIndex::kMaxPivots)) {
    return Status::InvalidArgument(
        std::to_string(distinct.size()) +
        " distinct pinned pivots exceed the cap of " + cap);
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<DynamicReachService>> DynamicReachService::Create(
    MutationLog* log, const DynamicReachOptions& options,
    std::shared_ptr<const ReachCore> snapshot) {
  TCDB_CHECK(log != nullptr);
  TCDB_RETURN_IF_ERROR(
      ValidatePivots(options.incremental_options, log->num_nodes()));
  auto service =
      std::unique_ptr<DynamicReachService>(new DynamicReachService());
  service->log_ = log;
  service->options_ = options;
  service->cache_ = ReachAnswerCache(options.cache_capacity);

  if (snapshot != nullptr) {
    // Recovery path: a deserialized core built at exactly the log's base
    // state — adopt it and skip the label build.
    if (snapshot->num_input_nodes != log->num_nodes()) {
      return Status::InvalidArgument(
          "preloaded snapshot covers " +
          std::to_string(snapshot->num_input_nodes) + " nodes, log has " +
          std::to_string(log->num_nodes()));
    }
    service->snapshot_ = std::move(snapshot);
    service->snapshot_epoch_ = log->current_epoch();
  } else {
    const MutationLog::ArcSnapshot base = log->SnapshotArcs();
    TCDB_ASSIGN_OR_RETURN(
        service->snapshot_,
        ReachCore::Build(base.arcs, log->num_nodes(), options.index));
    service->snapshot_epoch_ = base.epoch;
  }
  service->stats_.snapshot_epoch = service->snapshot_epoch_;
  service->stats_.epoch = log->current_epoch();
  // The trees track the LIVE graph, not the snapshot: they read the
  // log's adjacency, which later WAL replay keeps advancing.
  service->incremental_ =
      IncrementalIndex::Build(log->adjacency(), options.incremental_options);
  return service;
}

void DynamicReachService::SyncIncrementalStats() {
  const IncrementalStats& inc = incremental_->stats();
  stats_.incremental_repairs = inc.repairs();
  stats_.incremental_repair_cost = inc.repair_arc_scans;
  stats_.incremental_rebuilds_advised = inc.rebuilds_advised;
}

Result<DynamicReachService::Epoch> DynamicReachService::InsertArc(
    NodeId src, NodeId dst) {
  TCDB_ASSIGN_OR_RETURN(const Epoch epoch, log_->InsertArc(src, dst));
  ++stats_.arcs_inserted;
  stats_.epoch = epoch;
  cache_.BumpGeneration();
  incremental_->OnInsert(src, dst);
  SyncIncrementalStats();
  return epoch;
}

Result<DynamicReachService::Epoch> DynamicReachService::DeleteArc(
    NodeId src, NodeId dst) {
  TCDB_ASSIGN_OR_RETURN(const Epoch epoch, log_->DeleteArc(src, dst));
  ++stats_.arcs_deleted;
  stats_.epoch = epoch;
  cache_.BumpGeneration();
  incremental_->OnDelete(src, dst);
  SyncIncrementalStats();
  return epoch;
}

Result<DynamicReachService::Epoch> DynamicReachService::ApplyLogged(
    const MutationLog::Entry& entry) {
  return entry.insert ? InsertArc(entry.arc.src, entry.arc.dst)
                      : DeleteArc(entry.arc.src, entry.arc.dst);
}

void DynamicReachService::PublishSnapshot(
    std::shared_ptr<const ReachCore> core, Epoch epoch,
    double rebuild_seconds) {
  TCDB_CHECK(core != nullptr);
  TCDB_CHECK_EQ(core->num_input_nodes, log_->num_nodes());
  std::lock_guard<std::mutex> lock(pending_mu_);
  // Later publications supersede unadopted earlier ones; their rebuild
  // cost is still accounted.
  pending_core_ = std::move(core);
  pending_epoch_ = epoch;
  pending_seconds_sum_ += rebuild_seconds;
  pending_seconds_last_ = rebuild_seconds;
}

bool DynamicReachService::AdoptPublishedSnapshot() {
  std::shared_ptr<const ReachCore> core;
  Epoch epoch = 0;
  double seconds_sum = 0.0;
  double seconds_last = 0.0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_core_ == nullptr) return false;
    core = std::move(pending_core_);
    pending_core_.reset();
    epoch = pending_epoch_;
    seconds_sum = pending_seconds_sum_;
    seconds_last = pending_seconds_last_;
    pending_seconds_sum_ = 0.0;
  }
  stats_.rebuild_seconds_total += seconds_sum;
  stats_.last_rebuild_seconds = seconds_last;
  // Epochs are monotone (the log only grows), so a pending core is never
  // older than the serving one; equal means "rebuilt, nothing changed".
  TCDB_CHECK(epoch >= snapshot_epoch_);
  snapshot_ = std::move(core);
  snapshot_epoch_ = epoch;
  stats_.snapshot_epoch = epoch;
  ++stats_.snapshots_adopted;
  // The old snapshot is retired: answers computed against it must never
  // surface again.
  cache_.BumpGeneration();
  snapshot_scratch_ = ReachIndex::SearchScratch();
  // The rebuild the repair budget was saving toward just landed: reset
  // the cost accumulator and the advise flag. The trees need no work —
  // they track the live graph, not the snapshot.
  incremental_->OnSnapshotAdopted();
  SyncIncrementalStats();
  return true;
}

DynamicReachService::Answer DynamicReachService::SnapshotDecide(NodeId u,
                                                                NodeId v) {
  const ReachCore& core = *snapshot_;
  ReachRule rule = ReachRule::kSelf;
  ReachIndex::Verdict verdict = core.Decide(u, v, &rule);
  if (verdict != ReachIndex::Verdict::kUnknown) {
    return {verdict == ReachIndex::Verdict::kYes, rule};
  }
  int64_t expansions = 0;
  const bool reached = core.index.Search(
      core.dag, core.node_map[static_cast<size_t>(u)],
      core.node_map[static_cast<size_t>(v)], &snapshot_scratch_, &expansions);
  serving_stats_.bfs_expansions += expansions;
  return {reached, ReachRule::kPrunedBfs};
}

bool DynamicReachService::LiveReaches(NodeId u, NodeId v) {
  const LiveAdjacency& adj = log_->adjacency();
  live_visited_.Resize(static_cast<size_t>(adj.num_nodes()));
  live_visited_.ClearAll();
  live_frontier_.clear();
  live_visited_.Insert(static_cast<size_t>(u));
  live_frontier_.push_back(u);
  for (size_t head = 0; head < live_frontier_.size(); ++head) {
    for (const NodeId y : adj.Out(live_frontier_[head])) {
      if (y == v) return true;
      if (live_visited_.Contains(static_cast<size_t>(y))) continue;
      live_visited_.Insert(static_cast<size_t>(y));
      // The trees are exact at the live epoch, so their verdict on
      // (y, v) settles every path through y.
      const ReachIndex::Verdict verdict = incremental_->Decide(y, v);
      if (verdict == ReachIndex::Verdict::kYes) return true;
      if (verdict == ReachIndex::Verdict::kNo) continue;
      live_frontier_.push_back(y);
    }
  }
  return false;
}

Result<DynamicReachService::Answer> DynamicReachService::Query(NodeId src,
                                                               NodeId dst) {
  const NodeId n = log_->num_nodes();
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    return Status::InvalidArgument(
        "query endpoint out of range: (" + std::to_string(src) + ", " +
        std::to_string(dst) + ") with " + std::to_string(n) + " nodes");
  }
  AdoptPublishedSnapshot();
  const double start = MonotonicSeconds();
  ++stats_.queries;
  stats_.epoch = log_->current_epoch();

  Answer answer;
  bool cached = false;
  if (cache_.Lookup(src, dst, &cached)) {
    answer = {cached, ReachRule::kCacheHit};
    serving_stats_.Record(answer.rule, answer.reachable,
                          MonotonicSeconds() - start);
    return answer;
  }
  if (src == dst) {
    // Reflexive regardless of snapshot or epoch.
    answer = {true, ReachRule::kSelf};
  } else if (stats_.epoch == snapshot_epoch_) {
    // No mutation since the snapshot was built: it IS the live graph.
    ++stats_.snapshot_served;
    answer = SnapshotDecide(src, dst);
  } else {
    const ReachIndex::Verdict verdict = incremental_->Decide(src, dst);
    if (verdict != ReachIndex::Verdict::kUnknown) {
      ++stats_.incremental_served;
      answer = {verdict == ReachIndex::Verdict::kYes,
                ReachRule::kIncremental};
    } else {
      ++stats_.escalations;
      answer = {LiveReaches(src, dst), ReachRule::kLiveBfs};
      serving_stats_.bfs_expansions +=
          static_cast<int64_t>(live_frontier_.size());
    }
  }
  if (cache_.Insert(src, dst, answer.reachable)) {
    ++serving_stats_.cache_insertions;
  }
  serving_stats_.Record(answer.rule, answer.reachable,
                        MonotonicSeconds() - start);
  return answer;
}

}  // namespace tcdb

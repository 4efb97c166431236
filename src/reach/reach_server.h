#ifndef TCDB_REACH_REACH_SERVER_H_
#define TCDB_REACH_REACH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "reach/reach_service.h"
#include "reach/reach_stats.h"
#include "util/status.h"

namespace tcdb {

struct ReachServerOptions {
  // Per-shard serving parameters (answer-cache capacity, BFS budget).
  // `service.index` configures the one shared label build.
  ReachServiceOptions service;
  // Each shard owns one ReachService (private LRU cache, BFS scratch,
  // stats) behind its own mutex; the label pass needs no shard at all.
  int32_t num_shards = 4;
};

// Merge-on-read observability snapshot (ReachServer::Snapshot). `merged`
// and `latency` aggregate over shards; the per-shard vectors expose the
// split so tests can assert the shard counters sum to the totals and
// benches can spot a hot shard.
struct ReachServerStats {
  ReachStats merged;
  LatencyHistogram latency;  // per-query serving latency, all shards
  std::vector<ReachStats> per_shard;
  std::vector<LatencyHistogram> per_shard_latency;
  // Number of SwapCore publications since Start, and the epoch of the
  // latest one (0 until the first swap).
  int64_t core_swaps = 0;
  int64_t published_epoch = 0;
};

// Multi-threaded serving layer over one shared reachability index.
//
// Threading model (see DESIGN.md §10): there are no server threads. The
// caller's thread does all the work of its call. An immutable ReachCore
// (the condensation + O(1) labels) is published through one slot; a
// call reads it once, through a per-thread copy that one atomic load
// shows to be current, so no lock is taken between swaps. The call's
// label pass (ReachService::LabelPass) reads only that core, lock-free;
// it decides nearly every query on a labelled core. Only the residue the labels leave needs a shard's
// private state: each shard is a mutex around one ReachService (answer
// cache, pruned-BFS scratch, stats) and its latency histogram, taken
// once per call per shard involved to serve that residue and merge the
// call's stats.
//
// Queries route to shard hash(src) % N: all traffic for a source lands on
// the same shard, so its answer cache and BFS scratch keep their locality
// under sharding, and a batch's per-source fallback grouping is never
// split across shards.
//
// Query()/QueryBatch() are thread-safe and return when their answers are
// ready. Answers are position-stable: QueryBatch returns answers in input
// order regardless of shard routing.
//
// Stop() is a flag: later calls fail with FailedPrecondition, calls in
// flight finish. The destructor does not wait for calls in flight.
class ReachServer {
 public:
  using Answer = ReachService::Answer;

  // Builds the shared core once, then the shards. `arcs` may be cyclic
  // and unsorted; endpoints must lie in [0, num_nodes).
  static Result<std::unique_ptr<ReachServer>> Start(
      const ArcList& arcs, NodeId num_nodes,
      const ReachServerOptions& options = {});

  // Same, over a pre-built shared core.
  static Result<std::unique_ptr<ReachServer>> Start(
      std::shared_ptr<const ReachCore> core,
      const ReachServerOptions& options = {});

  ReachServer(const ReachServer&) = delete;
  ReachServer& operator=(const ReachServer&) = delete;

  // One query: the same two halves as ReachService::Query, the labels on
  // the calling thread and the residue under its shard's mutex.
  // Thread-safe. InvalidArgument on out-of-range endpoints;
  // FailedPrecondition after Stop().
  Result<Answer> Query(NodeId src, NodeId dst);

  // A batch: splits by shard (preserving input order within each shard),
  // runs each shard's label pass, then each shard's residue step. The
  // result vector matches `pairs` by position. With one shard this is
  // exactly the two halves of one ReachService::QueryBatch call with the
  // pairs in input order — the determinism tests pin that equivalence.
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  // Publishes a rebuilt core (the dynamic-update hot-swap path): calls
  // that start afterwards read its labels, and each shard adopts it at
  // its next residue step, invalidating its answer cache (generation
  // bump) in the same step, so no cached answer of a retired epoch is
  // served after its shard adopts. Calls in flight finish against the
  // core they loaded, or a newer one. `epoch` labels the mutation-log
  // position the core was built from and must not decrease across swaps.
  // The new core must cover the same input-node universe as the one the
  // server started with; InvalidArgument otherwise. Thread-safe;
  // callable concurrently with traffic.
  Status SwapCore(std::shared_ptr<const ReachCore> core, int64_t epoch);

  // Epoch of the latest SwapCore publication (0 before the first).
  int64_t published_epoch() const;

  // Rejects every later call with FailedPrecondition. Idempotent.
  void Stop();

  // Merged + per-shard counters and latency histograms, read under the
  // shard mutexes. Safe to call concurrently with traffic.
  ReachServerStats Snapshot() const;

  int32_t num_shards() const {
    return static_cast<int32_t>(shards_.size());
  }
  NodeId num_nodes() const { return core_->num_input_nodes; }
  bool condensed() const { return core_->condensed(); }
  const ReachCore& core() const { return *core_; }

  // Shard a source routes to (exposed for tests and bench partitioning).
  int32_t ShardOf(NodeId src) const;

  // Installs a deterministic clock on every shard's service (latency
  // attribution in ReachStats and the latency histograms). Must be called
  // before any traffic, and a stateful clock only where one thread drives
  // the server: the label pass reads it on the caller's thread.
  void SetClockForTesting(const std::function<std::function<double()>()>&
                              make_clock);

 private:
  // One SwapCore publication (generation 0 is the starting core).
  struct Publication {
    std::shared_ptr<const ReachCore> core;
    int64_t epoch = 0;
    uint64_t generation = 0;
  };

  struct Shard {
    mutable std::mutex mu;  // guards everything below
    std::unique_ptr<ReachService> service;
    LatencyHistogram latency;
    // Publication this shard's service last adopted.
    uint64_t adopted_generation = 0;
  };

  ReachServer() = default;

  // InvalidArgument on a bad endpoint, FailedPrecondition after Stop().
  Status Admit(std::span<const std::pair<NodeId, NodeId>> pairs) const;

  // Second half of a call on one shard, under its mutex: adopts
  // `publication` if the shard is behind it, serves the residue `pass`
  // (the label pass of `pairs`, all routed to `shard`) left, and records
  // the latency. Returns the answers by position within `pairs`.
  std::vector<Answer> ServeResidue(
      Shard* shard, const Publication& publication,
      std::span<const std::pair<NodeId, NodeId>> pairs,
      ReachService::BatchPass pass);

  // The core the server started with. Never reassigned (endpoint
  // validation and num_nodes() read it); swapped cores are published
  // through published_ instead and must share its input-node universe.
  std::shared_ptr<const ReachCore> core_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // The publication slot. Swaps replace published_ and then store its
  // generation into generation_, both under slot_mu_, so the epoch check
  // and the generation count stay exact and generation_ never moves
  // backwards. A call reads generation_ once with an acquire load and
  // takes slot_mu_ only when its thread's cached publication is older
  // (Current()).
  std::shared_ptr<const Publication> Published() const;
  mutable std::mutex slot_mu_;
  std::shared_ptr<const Publication> published_;
  std::atomic<uint64_t> generation_{0};

  // The newest publication, through the calling thread's one-entry cache
  // (keyed by id_). The reference stays valid until the thread's next
  // call into any ReachServer. A thread keeps the last publication it
  // read alive until then, or until it exits.
  const Publication& Current() const;
  uint64_t id_ = 0;  // unique per server, never reused

  std::atomic<bool> stopped_{false};
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_SERVER_H_

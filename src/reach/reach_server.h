#ifndef TCDB_REACH_REACH_SERVER_H_
#define TCDB_REACH_REACH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reach/reach_service.h"
#include "reach/reach_stats.h"
#include "util/status.h"

namespace tcdb {

struct ReachServerOptions {
  // Per-lane serving parameters (answer-cache capacity, BFS budget).
  // `service.index` configures the one shared label build.
  ReachServiceOptions service;
  // Ignored: the server keeps one lane per calling thread. Still declared
  // only because the perfbench `serve` and `chain_1m` workloads set it;
  // the next benchmark change drops it (ROADMAP item 4).
  int32_t num_shards = 4;
};

// Merge-on-read observability snapshot (ReachServer::Snapshot): the
// counters and latency histograms of every lane, merged.
struct ReachServerStats {
  ReachStats merged;
  LatencyHistogram latency;  // per-query serving latency, all lanes
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
// it decides nearly every query on a labelled core. The residue the
// labels leave is served on the calling thread's lane: one ReachService
// (answer cache, search scratch, stats) and a latency histogram
// behind a mutex that no other client takes, so clients never wait for
// each other.
//
// Query()/QueryBatch() are thread-safe and return when their answers are
// ready, in input order.
//
// Stop() is a flag: later calls fail with FailedPrecondition, calls in
// flight finish. The destructor does not wait for calls in flight.
class ReachServer {
 public:
  using Answer = ReachService::Answer;

  // Builds the shared core once. `arcs` may be cyclic and unsorted;
  // endpoints must lie in [0, num_nodes).
  static Result<std::unique_ptr<ReachServer>> Start(
      const ArcList& arcs, NodeId num_nodes,
      const ReachServerOptions& options = {});

  // Same, over a pre-built shared core.
  static Result<std::unique_ptr<ReachServer>> Start(
      std::shared_ptr<const ReachCore> core,
      const ReachServerOptions& options = {});

  ReachServer(const ReachServer&) = delete;
  ReachServer& operator=(const ReachServer&) = delete;

  // One query: the same two halves as ReachService::Query, both on the
  // calling thread's lane. Thread-safe. InvalidArgument on out-of-range
  // endpoints; FailedPrecondition after Stop().
  Result<Answer> Query(NodeId src, NodeId dst);

  // A batch: one label pass over `pairs` in input order, then the residue
  // step on the calling thread's lane. The result vector matches `pairs`
  // by position. From one thread this is exactly the two halves of one
  // ReachService::QueryBatch call — the determinism tests pin that
  // equivalence.
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  // Publishes a rebuilt core (the dynamic-update hot-swap path): calls
  // that start afterwards read its labels, and each lane adopts it at
  // its next residue step, invalidating its answer cache (generation
  // bump) in the same step, so no cached answer of a retired epoch is
  // served after its lane adopts. Calls in flight finish against the
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

  // Merged counters and latency histogram of every lane, each read under
  // its lane's mutex. Safe to call concurrently with traffic.
  ReachServerStats Snapshot() const;

  NodeId num_nodes() const { return core_->num_input_nodes; }
  bool condensed() const { return core_->condensed(); }
  const ReachCore& core() const { return *core_; }

  // Installs a deterministic clock, one make_clock() per lane, on every
  // lane's service and on every lane created later (latency attribution
  // in ReachStats and the latency histograms). Must be called before any
  // traffic.
  void SetClockForTesting(const std::function<std::function<double()>()>&
                              make_clock);

 private:
  // One SwapCore publication (generation 0 is the starting core).
  struct Publication {
    std::shared_ptr<const ReachCore> core;
    int64_t epoch = 0;
    uint64_t generation = 0;
  };

  // One calling thread's residue state. Its mutex is taken by that
  // thread, once per call, and by Snapshot and SetClockForTesting.
  struct Lane {
    std::mutex mu;  // guards everything below
    std::unique_ptr<ReachService> service;
    LatencyHistogram latency;
    // Publication this lane's service last adopted.
    uint64_t adopted_generation = 0;
  };

  // What a call reads, through the calling thread's one-entry cache
  // (Current()).
  struct View {
    const Publication* publication;
    Lane* lane;
  };

  ReachServer() = default;

  // InvalidArgument on a bad endpoint, FailedPrecondition after Stop().
  Status Admit(std::span<const std::pair<NodeId, NodeId>> pairs) const;

  // Second half of a call, under the lane's mutex: adopts the view's
  // publication if the lane is behind it, serves the residue `pass` (the
  // label pass of `pairs`) left, and records the latency. Returns the
  // answers by position within `pairs`.
  static std::vector<Answer> ServeResidue(
      const View& view, std::span<const std::pair<NodeId, NodeId>> pairs,
      ReachService::BatchPass pass);

  // The core the server started with. Never reassigned (endpoint
  // validation and num_nodes() read it); swapped cores are published
  // through published_ instead and must share its input-node universe.
  std::shared_ptr<const ReachCore> core_;
  ReachServiceOptions service_options_;

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

  // One lane per thread that ever called, keyed by its id; a thread that
  // reuses an exited thread's id inherits that idle lane. Lanes are never
  // removed, so a Lane* stays valid for the server's lifetime. Lanes
  // created after SetClockForTesting get make_clock_() too.
  Lane* LaneOfThisThread();
  mutable std::mutex lanes_mu_;  // guards lanes_ and make_clock_
  std::unordered_map<std::thread::id, std::unique_ptr<Lane>> lanes_;
  std::function<std::function<double()>()> make_clock_;

  // The newest publication and this thread's lane, through the calling
  // thread's one-entry cache (keyed by id_). The view stays valid until
  // the thread's next call into any ReachServer. A thread keeps the last
  // publication it read alive until then, or until it exits.
  View Current();
  uint64_t id_ = 0;  // unique per server, never reused

  std::atomic<bool> stopped_{false};
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_SERVER_H_

#ifndef TCDB_DYNAMIC_INDEX_REBUILDER_H_
#define TCDB_DYNAMIC_INDEX_REBUILDER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "dynamic/mutation_log.h"
#include "reach/reach_service.h"
#include "util/status.h"

namespace tcdb {

struct IndexRebuilderOptions {
  // Rebuild once this many mutations have accumulated since the last
  // published build.
  int64_t mutations_per_rebuild = 256;
  // How often the background thread re-checks the trigger.
  std::chrono::milliseconds poll_interval{2};
  ReachIndexOptions index;
  // Epoch the serving side's initial snapshot was built at. The default 0
  // matches a service opened on the base graph; a replication follower
  // that bootstraps from a checkpoint at epoch E passes E so the first
  // trigger fires after E + mutations_per_rebuild, not immediately.
  MutationLog::Epoch initial_published_epoch = 0;
  // Optional advise hook polled alongside the epoch-batch threshold: when
  // it returns true and the log has moved past the last published build,
  // a rebuild fires even below mutations_per_rebuild. This is how the
  // incremental tier turns the rebuilder into the slow path — its
  // repair-cost estimator (DynamicReachService::RebuildAdvised) plugs in
  // here. Must be safe to call from the rebuilder thread.
  std::function<bool()> rebuild_advised;
};

// Background index maintenance: watches a MutationLog and, once enough
// mutations have accumulated past the last rebuild, snapshots the live
// arc set, builds a fresh ReachCore off-thread, and hands it to the
// publish callback — DynamicReachService::PublishSnapshot for the
// single-threaded stack, ReachServer::SwapCore for the sharded one. The
// serving side never blocks: the build runs entirely on this thread, and
// publication is a pointer hand-off.
//
// The rebuild trigger is the epoch delta (log position now vs. the last
// published build): the log position is safe to read from this thread,
// monotone, and independent of how much of the delta happens to cancel
// out.
class IndexRebuilder {
 public:
  using Options = IndexRebuilderOptions;

  // `publish(core, epoch, rebuild_seconds)` receives every finished
  // build; it runs on the rebuilder thread and must be thread-safe
  // against the serving side (both provided publishers are). A non-Ok
  // return (ReachServer::SwapCore refusing the core) counts as a failed
  // rebuild.
  using Publish = std::function<Status(std::shared_ptr<const ReachCore>,
                                       MutationLog::Epoch, double)>;

  // The log and the publish target must outlive the rebuilder.
  IndexRebuilder(MutationLog* log, Publish publish,
                 IndexRebuilderOptions options = {});

  // Same, for a publisher that cannot fail
  // (DynamicReachService::PublishSnapshot).
  template <typename F>
    requires std::is_void_v<std::invoke_result_t<
        F&, std::shared_ptr<const ReachCore>, MutationLog::Epoch, double>>
  IndexRebuilder(MutationLog* log, F publish,
                 IndexRebuilderOptions options = {})
      : IndexRebuilder(
            log,
            Publish([publish = std::move(publish)](
                        std::shared_ptr<const ReachCore> core,
                        MutationLog::Epoch epoch, double seconds) mutable {
              publish(std::move(core), epoch, seconds);
              return Status::Ok();
            }),
            std::move(options)) {}
  ~IndexRebuilder();  // Stop()

  IndexRebuilder(const IndexRebuilder&) = delete;
  IndexRebuilder& operator=(const IndexRebuilder&) = delete;

  // Starts the background thread. Idempotent. A build or publish that
  // fails on the thread is counted (rebuild_failures) and not retried
  // until the log moves on; serving continues on the last published
  // snapshot.
  void Start();
  // Stops and joins it. Idempotent; a build in flight completes (and
  // publishes) first.
  void Stop();

  // Synchronous rebuild at the log's current epoch, regardless of the
  // trigger — the deterministic path tests and the stress harness drive.
  // Skips (Ok, no publish) when the epoch already matches the last
  // published build. Callable with or without the thread running (builds
  // serialize on an internal mutex).
  Status RebuildNow();

  // Builds published so far.
  int64_t rebuilds_published() const;
  // Builds that failed (e.g. a kChain label budget exceeded) or whose
  // publication was refused, on the thread or through RebuildNow.
  int64_t rebuild_failures() const;
  // Epoch of the newest published build (initial_published_epoch before
  // any build) — the follower's "served" position for lag accounting.
  MutationLog::Epoch published_epoch() const;

 private:
  // Builds + publishes at the log's current epoch if it moved past
  // `last_published_epoch_` (and, unless forced, past the last failed
  // epoch). Returns the build or publish status.
  Status MaybeRebuild(bool force);

  void ThreadLoop();

  MutationLog* log_;
  Publish publish_;
  Options options_;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable wake_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread thread_;
  // The serving side's opening snapshot counts as already published
  // (epoch 0 for the base graph; a follower's checkpoint epoch).
  MutationLog::Epoch last_published_epoch_ = 0;
  int64_t rebuilds_published_ = 0;
  // Epoch of the newest failed build or publish (-1: none), and the count.
  MutationLog::Epoch last_failed_epoch_ = -1;
  int64_t rebuild_failures_ = 0;

  std::mutex build_mu_;  // serializes RebuildNow vs. the thread's builds
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_INDEX_REBUILDER_H_

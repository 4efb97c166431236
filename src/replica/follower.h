#ifndef TCDB_REPLICA_FOLLOWER_H_
#define TCDB_REPLICA_FOLLOWER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/index_rebuilder.h"
#include "persist/durable_service.h"
#include "reach/reach_server.h"
#include "replica/primary.h"
#include "replica/transport.h"

namespace tcdb {

struct FollowerOptions {
  // The follower's own durable stack under its directory (its WAL is
  // what makes it promotable).
  DurableOptions durable;
  // Follower-side serving (the ReachServer queries go to).
  ReachServerOptions server;
  // Hard staleness bound: once this many applied records are not yet
  // visible to readers, the apply thread rebuilds and swaps the serving
  // core synchronously before applying more. Together with the
  // transport's in-flight bound this caps tip - served.
  int64_t max_apply_ahead = 256;
  // Local checkpoint cadence in applied records (0 = never). Keeps a
  // restarted follower's catch-up proportional to its own WAL suffix.
  int64_t checkpoint_every = 0;
  // Bootstrap gives up after this many re-fetches of the same segment.
  int max_segment_retries = 3;
};

// Epoch positions of one follower, sampled together: `tip` is the
// primary's last advertised epoch, `applied` the follower's durable
// apply position, `served` the epoch of the snapshot reads see.
// tip >= applied >= served always; tip - served is the staleness.
struct FollowerLag {
  int64_t tip = 0;
  int64_t applied = 0;
  int64_t served = 0;
};

struct FollowerStats {
  int64_t records_applied = 0;
  int64_t stale_records_skipped = 0;
  int64_t checkpoints_received = 0;
  int64_t segments_received = 0;
  int64_t segment_resends_requested = 0;
  int64_t heartbeats_received = 0;
  // Synchronous core rebuilds forced by the max_apply_ahead bound.
  int64_t forced_refreshes = 0;
  int64_t local_checkpoints = 0;
};

// The read replica: bootstraps from the primary's shipped checkpoint +
// WAL segments, then applies the live record stream into its own
// durable stack while a multi-threaded ReachServer answers queries from an
// immutable snapshot core.
//
// Epoch consistency is the SwapCore discipline: readers only ever see a
// core built at a single epoch, loaded once per call — never a
// half-applied mutation. The apply thread owns the durable stack; the
// IndexRebuilder (synchronous use only, driven from the apply loop and
// RefreshSnapshot) republishes cores as records accumulate.
//
// Start returns immediately; the protocol runs on the apply thread, and
// queries block until the follower has caught up to the bootstrap tip.
class Follower {
 public:
  using Epoch = DurableDynamicService::Epoch;
  using Answer = ReachServer::Answer;

  // `fs` must outlive the follower; `dir` is the follower's own database
  // directory (created if absent; an existing durable state there is
  // recovered and used to shorten bootstrap).
  static Result<std::unique_ptr<Follower>> Start(
      Fs* fs, std::string dir, std::unique_ptr<ByteStream> stream,
      FollowerOptions options = {});

  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  // Thread-safe reads; they block until the follower is serving (and
  // fail once it has shut down with an error).
  Result<Answer> Query(NodeId src, NodeId dst);
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  // Current lag sample (zeros before serving starts). Thread-safe.
  FollowerLag Lag() const;

  // Blocks until the applied epoch reaches `epoch` (true) or the
  // deadline passes / the follower dies (false). The served snapshot may
  // still trail; call RefreshSnapshot afterwards for a read barrier.
  // Thread-safe.
  bool WaitCaughtUp(Epoch epoch, std::chrono::milliseconds timeout);

  // Blocks until the replication stream has ended (primary gone or
  // detached) and the apply thread has drained every received record.
  void WaitForStreamEnd();

  // Synchronously rebuilds + publishes the serving core at the current
  // applied epoch, from any thread. The barrier the harness and tests
  // use before differential reads. FailedPrecondition after Promote.
  Status RefreshSnapshot();

  // Failover: ends replication, drains the stream, publishes the final
  // snapshot, and hands the durable stack to a new writable Primary.
  // The follower stops serving (queries fail afterwards); the returned
  // primary serves at exactly the last applied epoch. Call only after
  // WaitForStreamEnd (FailedPrecondition while the stream is live).
  Result<std::unique_ptr<Primary>> Promote(PrimaryOptions options = {});

  // First fatal replication error, if any (Ok while healthy or after a
  // clean end of stream). Thread-safe.
  Status error() const;

  FollowerStats stats() const;
  Epoch applied_epoch() const { return applied_.load(); }

 private:
  Follower(Fs* fs, std::string dir, std::unique_ptr<ByteStream> stream,
           FollowerOptions options);

  void ApplyThread();
  // Hello + bootstrap until kBootstrapDone; leaves db_ at the tip and
  // the serving stack running. Any error is fatal for the session.
  Status Bootstrap();
  // Steady state: records/heartbeats until end of stream.
  Status ApplyLoop();
  // Applies one replicated record and maintains the staleness bound and
  // checkpoint cadence.
  Status ApplyRecord(Epoch epoch, const MutationLog::Entry& entry);
  // Starts server_ + rebuilder_ over db_ at its current epoch.
  Status StartServing();
  // Rebuild + swap at the current epoch (apply thread or, via
  // RefreshSnapshot, any thread — serialized by the rebuilder).
  Status PublishNow();
  void Fail(const Status& status);

  Fs* fs_;
  std::string dir_;
  std::unique_ptr<ByteStream> stream_;
  FollowerOptions options_;

  // Owned by the apply thread until Promote hands it off.
  std::unique_ptr<DurableDynamicService> db_;
  std::unique_ptr<ReachServer> server_;
  std::unique_ptr<IndexRebuilder> rebuilder_;

  std::atomic<int64_t> tip_{0};
  std::atomic<int64_t> applied_{0};
  std::atomic<int64_t> served_{0};

  mutable std::mutex mu_;  // guards the fields below
  std::condition_variable state_changed_;
  bool serving_ = false;
  bool stream_ended_ = false;
  bool promoted_ = false;
  Status error_ = Status::Ok();
  FollowerStats stats_;

  int64_t records_since_checkpoint_ = 0;
  std::thread apply_thread_;
};

}  // namespace tcdb

#endif  // TCDB_REPLICA_FOLLOWER_H_

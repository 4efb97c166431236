#ifndef TCDB_PERSIST_DURABLE_SERVICE_H_
#define TCDB_PERSIST_DURABLE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "dynamic/dynamic_reach_service.h"
#include "dynamic/mutation_log.h"
#include "persist/checkpoint.h"
#include "persist/fs.h"
#include "persist/wal.h"

namespace tcdb {

struct DurableOptions {
  DynamicReachOptions dynamic;
  WalOptions wal;
  // Checkpoints retained on disk (the newest, plus fallbacks).
  int keep_checkpoints = 2;
};

struct RecoveryReport {
  int64_t checkpoint_epoch = 0;    // watermark E of the checkpoint used
  int64_t replayed_entries = 0;    // WAL records applied (epoch > E)
  int64_t stale_entries_skipped = 0;  // WAL records at epoch <= E
  int64_t recovered_epoch = 0;     // == checkpoint_epoch + replayed_entries
  int64_t torn_bytes_dropped = 0;  // repaired WAL tail
  int64_t checkpoints_skipped = 0;  // damaged newer checkpoints passed over
};

struct PersistStats {
  int64_t checkpoints_written = 0;
  int64_t wal_records_appended = 0;
  int64_t wal_bytes_appended = 0;
  int64_t wal_syncs = 0;
  int64_t last_checkpoint_bytes = 0;
  // Core rebuilds forced at checkpoint time because the serving snapshot
  // was older than the checkpoint epoch (0 when it could be reused).
  int64_t checkpoint_core_builds = 0;
};

// The durable serving stack: a DynamicReachService whose mutations are
// write-ahead logged and whose state is periodically checkpointed, so a
// process death loses nothing (with sync_each_append) and restart cost is
// proportional to the WAL suffix after the last checkpoint — never a full
// closure/label rebuild over the whole history.
//
// Protocol per mutation: validate (the exact MutationLog preconditions,
// checked first so a rejected mutation never touches the log) ->
// Wal::Append at the epoch the mutation will produce -> apply to the
// in-memory stack (which cannot fail after validation). If the WAL append
// errors (device gone), the mutation is NOT applied and the service must
// be treated as crashed: the torn record, if any, is dropped at the next
// recovery.
//
// Checkpoint() persists a consistent cut at the current epoch E: the live
// arc set, a ReachCore built from exactly that arc set, and E as the
// watermark; then rotates the WAL to a fresh segment and deletes segments
// entirely at or below the watermark. The cut never splits an epoch —
// everything is taken on the owner thread between mutations, and a
// background IndexRebuilder only ever *publishes* cores (adopted at query
// boundaries), it never writes durable state.
//
// Single-owner object, like the DynamicReachService it wraps.
class DurableDynamicService {
 public:
  using Epoch = MutationLog::Epoch;
  using Answer = DynamicReachService::Answer;

  // Initializes a fresh database under `dir` (created if absent): opens
  // the mutation log on `base_arcs`, writes checkpoint 0, and starts the
  // WAL. `fs` must outlive the service.
  static Result<std::unique_ptr<DurableDynamicService>> Create(
      Fs* fs, const std::string& dir, const ArcList& base_arcs,
      NodeId num_nodes, const DurableOptions& options = {});

  // Restores the durable state under `dir`: loads the newest valid
  // checkpoint (epoch E), rebuilds the log and serving snapshot from it
  // without any label build, and replays exactly the WAL records with
  // epoch > E. The result answers queries at the exact pre-crash epoch.
  static Result<std::unique_ptr<DurableDynamicService>> Recover(
      Fs* fs, const std::string& dir, const DurableOptions& options = {},
      RecoveryReport* report = nullptr);

  // Mutations (logged-then-applied; same status contract as
  // MutationLog::InsertArc/DeleteArc).
  Result<Epoch> InsertArc(NodeId src, NodeId dst);
  Result<Epoch> DeleteArc(NodeId src, NodeId dst);

  // Applies one replicated record: the same validate -> WAL -> apply
  // protocol as InsertArc/DeleteArc, but at an epoch dictated by the
  // primary's log instead of minted locally. `epoch` must be exactly
  // current_epoch() + 1 — a gap or replay means the replication stream
  // skipped or repeated records, which is Corruption, not a client error.
  Result<Epoch> ApplyReplicated(Epoch epoch, const MutationLog::Entry& entry);

  // Forwarded to the dynamic service.
  Result<Answer> Query(NodeId src, NodeId dst);

  // Persists the current epoch as described above.
  Status Checkpoint();

  Epoch epoch() const { return log_->current_epoch(); }
  NodeId num_nodes() const { return log_->num_nodes(); }
  Fs* fs() { return fs_; }
  const std::string& dir() const { return dir_; }
  // The WAL segment directory ("<dir>/wal") — the replication primary
  // ships segment files straight out of it.
  std::string wal_dir() const;
  DynamicReachService* service() { return service_.get(); }
  MutationLog* log() { return log_.get(); }
  Wal* wal() { return wal_.get(); }
  const PersistStats& persist_stats() const { return stats_; }

 private:
  DurableDynamicService() = default;

  // Builds the stack over `arcs`/`core` (core may be null -> build) and
  // finishes construction. Shared by Create and Recover.
  static Result<std::unique_ptr<DurableDynamicService>> Assemble(
      Fs* fs, const std::string& dir, const ArcList& arcs, NodeId num_nodes,
      int64_t base_epoch, std::shared_ptr<const ReachCore> core,
      const DurableOptions& options);

  // The MutationLog preconditions, checked without mutating anything.
  Status Validate(NodeId src, NodeId dst, bool insert) const;

  Result<Epoch> ApplyLogged(NodeId src, NodeId dst, bool insert);

  Fs* fs_ = nullptr;
  std::string dir_;
  DurableOptions options_;

  std::unique_ptr<MutationLog> log_;
  std::unique_ptr<DynamicReachService> service_;
  std::unique_ptr<Wal> wal_;

  PersistStats stats_;
};

}  // namespace tcdb

#endif  // TCDB_PERSIST_DURABLE_SERVICE_H_

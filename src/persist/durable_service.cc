#include "persist/durable_service.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace tcdb {

namespace {

constexpr char kWalSubdir[] = "wal";

}  // namespace

std::string DurableDynamicService::wal_dir() const {
  return JoinPath(dir_, kWalSubdir);
}

Result<std::unique_ptr<DurableDynamicService>>
DurableDynamicService::Assemble(Fs* fs, const std::string& dir,
                                const ArcList& arcs, NodeId num_nodes,
                                int64_t base_epoch,
                                std::shared_ptr<const ReachCore> core,
                                const DurableOptions& options) {
  auto db = std::unique_ptr<DurableDynamicService>(
      new DurableDynamicService());
  db->fs_ = fs;
  db->dir_ = dir;
  db->options_ = options;

  MutationLogOptions log_options;
  log_options.base_epoch = base_epoch;
  TCDB_ASSIGN_OR_RETURN(db->log_,
                        MutationLog::Open(arcs, num_nodes, log_options));
  TCDB_ASSIGN_OR_RETURN(
      db->service_,
      DynamicReachService::Create(db->log_.get(), options.dynamic,
                                  std::move(core)));
  return db;
}

Result<std::unique_ptr<DurableDynamicService>> DurableDynamicService::Create(
    Fs* fs, const std::string& dir, const ArcList& base_arcs,
    NodeId num_nodes, const DurableOptions& options) {
  TCDB_CHECK(fs != nullptr);
  TCDB_RETURN_IF_ERROR(fs->MakeDir(dir));
  TCDB_RETURN_IF_ERROR(fs->MakeDir(JoinPath(dir, kWalSubdir)));
  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableDynamicService> db,
      Assemble(fs, dir, base_arcs, num_nodes, /*base_epoch=*/0,
               /*core=*/nullptr, options));
  // Checkpoint 0 makes the base graph durable before any mutation is
  // accepted; it reuses the snapshot just built at the same epoch.
  TCDB_RETURN_IF_ERROR(db->Checkpoint());
  return db;
}

Result<std::unique_ptr<DurableDynamicService>> DurableDynamicService::Recover(
    Fs* fs, const std::string& dir, const DurableOptions& options,
    RecoveryReport* report) {
  TCDB_CHECK(fs != nullptr);
  RecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RecoveryReport{};

  TCDB_ASSIGN_OR_RETURN(
      CheckpointImage image,
      LoadNewestCheckpoint(fs, dir, &report->checkpoints_skipped));
  report->checkpoint_epoch = image.epoch;

  TCDB_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableDynamicService> db,
      Assemble(fs, dir, image.arcs, image.num_nodes, image.epoch,
               std::move(image.core), options));

  // The WAL open repairs a torn tail; everything it recovered past the
  // watermark is replayed through the ordinary mutation path (so the
  // live adjacency, the incremental trees and the stats all advance
  // exactly as they did before the crash) — without re-appending to the WAL, where the
  // records already are.
  TCDB_ASSIGN_OR_RETURN(
      db->wal_, Wal::Open(fs, JoinPath(dir, kWalSubdir), options.wal));
  report->torn_bytes_dropped = db->wal_->torn_bytes_dropped();
  for (const Wal::Record& record : db->wal_->recovered_records()) {
    if (record.epoch <= image.epoch) {
      // A segment the crash interrupted before log truncation could
      // delete it: already covered by the checkpoint.
      ++report->stale_entries_skipped;
      continue;
    }
    TCDB_ASSIGN_OR_RETURN(const Epoch applied,
                          db->service_->ApplyLogged(record.entry));
    if (applied != record.epoch) {
      return Status::Corruption(
          "WAL replay produced epoch " + std::to_string(applied) +
          " for a record stamped " + std::to_string(record.epoch));
    }
    ++report->replayed_entries;
  }
  report->recovered_epoch = db->log_->current_epoch();
  TCDB_CHECK_EQ(report->recovered_epoch,
                report->checkpoint_epoch + report->replayed_entries);
  return db;
}

Status DurableDynamicService::Validate(NodeId src, NodeId dst,
                                       bool insert) const {
  // Mirrors MutationLog::InsertArc/DeleteArc preconditions exactly, so a
  // rejected mutation returns the same status it always did — without a
  // WAL record for an operation that never happened.
  if (src < 0 || src >= num_nodes() || dst < 0 || dst >= num_nodes()) {
    return Status::InvalidArgument(
        "arc endpoint out of range: (" + std::to_string(src) + ", " +
        std::to_string(dst) + ") with " + std::to_string(num_nodes()) +
        " nodes");
  }
  if (src == dst) {
    return Status::InvalidArgument("self-loop arc (" + std::to_string(src) +
                                   ", " + std::to_string(dst) + ")");
  }
  const bool live = log_->HasArc(src, dst);
  if (insert && live) {
    return Status::FailedPrecondition("arc (" + std::to_string(src) + ", " +
                                      std::to_string(dst) +
                                      ") is already live");
  }
  if (!insert && !live) {
    return Status::NotFound("arc (" + std::to_string(src) + ", " +
                            std::to_string(dst) + ") is not live");
  }
  return Status::Ok();
}

Result<DurableDynamicService::Epoch> DurableDynamicService::ApplyLogged(
    NodeId src, NodeId dst, bool insert) {
  TCDB_RETURN_IF_ERROR(Validate(src, dst, insert));
  const Epoch epoch = log_->current_epoch() + 1;
  const MutationLog::Entry entry{Arc{src, dst}, insert};
  TCDB_RETURN_IF_ERROR(wal_->Append(epoch, entry));
  stats_.wal_records_appended = wal_->records_appended();
  stats_.wal_bytes_appended = wal_->bytes_appended();
  stats_.wal_syncs = wal_->syncs();
  // Validated and logged: the in-memory apply cannot legitimately fail.
  TCDB_ASSIGN_OR_RETURN(const Epoch applied, service_->ApplyLogged(entry));
  TCDB_CHECK_EQ(applied, epoch);
  return applied;
}

Result<DurableDynamicService::Epoch> DurableDynamicService::ApplyReplicated(
    Epoch epoch, const MutationLog::Entry& entry) {
  TCDB_RETURN_IF_ERROR(
      Validate(entry.arc.src, entry.arc.dst, entry.insert));
  if (epoch != log_->current_epoch() + 1) {
    return Status::Corruption(
        "replicated record at epoch " + std::to_string(epoch) +
        " does not follow local epoch " +
        std::to_string(log_->current_epoch()));
  }
  TCDB_RETURN_IF_ERROR(wal_->Append(epoch, entry));
  stats_.wal_records_appended = wal_->records_appended();
  stats_.wal_bytes_appended = wal_->bytes_appended();
  stats_.wal_syncs = wal_->syncs();
  TCDB_ASSIGN_OR_RETURN(const Epoch applied, service_->ApplyLogged(entry));
  TCDB_CHECK_EQ(applied, epoch);
  return applied;
}

Result<DurableDynamicService::Epoch> DurableDynamicService::InsertArc(
    NodeId src, NodeId dst) {
  return ApplyLogged(src, dst, /*insert=*/true);
}

Result<DurableDynamicService::Epoch> DurableDynamicService::DeleteArc(
    NodeId src, NodeId dst) {
  return ApplyLogged(src, dst, /*insert=*/false);
}

Result<DurableDynamicService::Answer> DurableDynamicService::Query(
    NodeId src, NodeId dst) {
  return service_->Query(src, dst);
}

Status DurableDynamicService::Checkpoint() {
  // Adopt any pending rebuilt snapshot first: if the rebuilder already
  // built a core at the current epoch, the cut below reuses it.
  service_->AdoptPublishedSnapshot();

  const MutationLog::ArcSnapshot cut = log_->SnapshotArcs();
  const Epoch epoch = cut.epoch;
  TCDB_CHECK_EQ(epoch, log_->current_epoch());  // owner thread: no racer

  std::shared_ptr<const ReachCore> core;
  if (service_->snapshot_epoch() == epoch) {
    // The serving snapshot was built from exactly this arc set.
    core = service_->snapshot_shared();
  } else {
    TCDB_ASSIGN_OR_RETURN(
        core,
        ReachCore::Build(cut.arcs, num_nodes(), options_.dynamic.index));
    ++stats_.checkpoint_core_builds;
  }

  // Durability barrier before the atomic publish: WAL records up to the
  // watermark.
  if (wal_ != nullptr) {
    TCDB_RETURN_IF_ERROR(wal_->Sync());
  }

  CheckpointImage image;
  image.num_nodes = num_nodes();
  image.epoch = epoch;
  image.arcs = cut.arcs;
  image.core = std::move(core);
  TCDB_RETURN_IF_ERROR(WriteCheckpoint(fs_, dir_, image));
  ++stats_.checkpoints_written;
  stats_.last_checkpoint_bytes = 0;
  {
    // Record the on-disk size for observability (best-effort).
    Result<std::unique_ptr<FsFile>> file =
        fs_->Open(JoinPath(dir_, CheckpointName(epoch)), /*create=*/false);
    if (file.ok()) {
      Result<int64_t> size = file.value()->Size();
      if (size.ok()) stats_.last_checkpoint_bytes = size.value();
    }
  }

  // The WAL prefix at or below the watermark is now redundant.
  if (wal_ == nullptr) {
    TCDB_ASSIGN_OR_RETURN(
        wal_, Wal::Open(fs_, JoinPath(dir_, kWalSubdir), options_.wal));
  }
  TCDB_RETURN_IF_ERROR(wal_->Rotate(epoch + 1));
  TCDB_RETURN_IF_ERROR(wal_->TruncateThrough(epoch));
  TCDB_RETURN_IF_ERROR(
      PruneCheckpoints(fs_, dir_, options_.keep_checkpoints));
  return Status::Ok();
}

}  // namespace tcdb

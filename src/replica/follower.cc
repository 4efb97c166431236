#include "replica/follower.h"

#include <algorithm>
#include <map>
#include <utility>

#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "util/check.h"

namespace tcdb {

namespace {

Status WriteFileBytes(Fs* fs, const std::string& dir,
                      const std::string& name, const std::string& bytes) {
  const std::string path = JoinPath(dir, name);
  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<FsFile> file,
                        fs->Open(path, /*create=*/true));
  TCDB_RETURN_IF_ERROR(file->Truncate(0));
  TCDB_RETURN_IF_ERROR(file->WriteAt(0, bytes.data(), bytes.size()));
  TCDB_RETURN_IF_ERROR(file->Sync());
  return fs->SyncDir(dir);
}

}  // namespace

Follower::Follower(Fs* fs, std::string dir,
                   std::unique_ptr<ByteStream> stream,
                   FollowerOptions options)
    : fs_(fs),
      dir_(std::move(dir)),
      stream_(std::move(stream)),
      options_(options) {}

Result<std::unique_ptr<Follower>> Follower::Start(
    Fs* fs, std::string dir, std::unique_ptr<ByteStream> stream,
    FollowerOptions options) {
  TCDB_CHECK(fs != nullptr);
  TCDB_CHECK(stream != nullptr);
  TCDB_RETURN_IF_ERROR(fs->MakeDir(dir));
  TCDB_RETURN_IF_ERROR(fs->MakeDir(JoinPath(dir, "wal")));
  auto follower = std::unique_ptr<Follower>(new Follower(
      fs, std::move(dir), std::move(stream), options));
  follower->apply_thread_ =
      std::thread([f = follower.get()] { f->ApplyThread(); });
  return follower;
}

Follower::~Follower() {
  stream_->Close();
  if (apply_thread_.joinable()) apply_thread_.join();
}

void Follower::Fail(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok()) error_ = status;
  state_changed_.notify_all();
}

void Follower::ApplyThread() {
  Status status = Bootstrap();
  if (status.ok()) {
    status = ApplyLoop();
  }
  if (!status.ok()) Fail(status);
  stream_->Close();
  std::lock_guard<std::mutex> lock(mu_);
  stream_ended_ = true;
  state_changed_.notify_all();
}

Status Follower::Bootstrap() {
  // Local durable state shortens the catch-up; its absence is the
  // ordinary fresh-follower case, not an error.
  {
    Result<std::unique_ptr<DurableDynamicService>> recovered =
        DurableDynamicService::Recover(fs_, dir_, options_.durable);
    if (recovered.ok()) {
      db_ = std::move(recovered).value();
    } else if (recovered.status().code() != StatusCode::kNotFound) {
      return recovered.status();
    }
  }

  Frame hello;
  hello.type = FrameType::kHello;
  hello.a = db_ != nullptr ? db_->epoch() : 0;
  hello.b = db_ != nullptr ? 1 : 0;
  TCDB_RETURN_IF_ERROR(WriteFrame(stream_.get(), hello));

  std::vector<Wal::Record> pending;
  std::map<int64_t, int> segment_retries;
  int64_t tip = -1;
  while (tip < 0) {
    TCDB_ASSIGN_OR_RETURN(const Frame frame, ReadFrame(stream_.get()));
    switch (frame.type) {
      case FrameType::kCheckpoint: {
        // The shipped image supersedes all local state: release the
        // recovered stack and clear the local WAL before installing it —
        // keeping old segments would leave an epoch gap between their
        // records and the post-checkpoint appends, which Wal::Open
        // rightly refuses on the next restart.
        db_.reset();
        const std::string wal_dir = JoinPath(dir_, "wal");
        TCDB_ASSIGN_OR_RETURN(std::vector<int64_t> old_segments,
                              Wal::ListSegments(fs_, wal_dir));
        for (const int64_t first_epoch : old_segments) {
          TCDB_RETURN_IF_ERROR(fs_->Remove(
              JoinPath(wal_dir, Wal::SegmentName(first_epoch))));
        }
        if (!old_segments.empty()) {
          TCDB_RETURN_IF_ERROR(fs_->SyncDir(wal_dir));
        }
        TCDB_RETURN_IF_ERROR(WriteFileBytes(
            fs_, dir_, CheckpointName(frame.a), frame.bytes));
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.checkpoints_received;
        break;
      }
      case FrameType::kSegment: {
        TCDB_ASSIGN_OR_RETURN(const Wal::SegmentScan scan,
                              Wal::ScanSegment(frame.bytes, frame.a));
        const int64_t last_contained =
            scan.records.empty() ? frame.a - 1 : scan.records.back().epoch;
        if (!scan.torn_reason.empty() || last_contained != frame.b) {
          // Damaged or short of the advertised content: re-fetch. The
          // CRC-framed transport makes this rare (a source-side torn
          // read, not line noise), so a persistent failure is fatal.
          if (++segment_retries[frame.a] > options_.max_segment_retries) {
            return Status::Corruption(
                "shipped segment " + Wal::SegmentName(frame.a) +
                " stayed damaged after retries");
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.segment_resends_requested;
          }
          Frame resend;
          resend.type = FrameType::kResendSegment;
          resend.a = frame.a;
          TCDB_RETURN_IF_ERROR(WriteFrame(stream_.get(), resend));
          break;
        }
        pending.insert(pending.end(), scan.records.begin(),
                       scan.records.end());
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.segments_received;
        }
        Frame ok;
        ok.type = FrameType::kSegmentOk;
        ok.a = frame.a;
        TCDB_RETURN_IF_ERROR(WriteFrame(stream_.get(), ok));
        break;
      }
      case FrameType::kBootstrapDone:
        tip = frame.a;
        break;
      default:
        return Status::Corruption(
            "unexpected frame during follower bootstrap");
    }
  }

  if (db_ == nullptr) {
    TCDB_ASSIGN_OR_RETURN(
        db_, DurableDynamicService::Recover(fs_, dir_, options_.durable));
  }

  // Replay the shipped suffix through the follower's own durable
  // protocol: records at or below the recovery point are the overlap a
  // checkpoint-truncation race legitimately ships twice.
  for (const Wal::Record& record : pending) {
    if (record.epoch <= db_->epoch()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.stale_records_skipped;
      continue;
    }
    TCDB_ASSIGN_OR_RETURN(const Epoch applied,
                          db_->ApplyReplicated(record.epoch, record.entry));
    TCDB_CHECK_EQ(applied, record.epoch);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.records_applied;
  }
  if (db_->epoch() != tip) {
    return Status::Corruption(
        "bootstrap ended at epoch " + std::to_string(db_->epoch()) +
        ", primary tip is " + std::to_string(tip));
  }
  tip_.store(tip);
  applied_.store(tip);
  records_since_checkpoint_ = 0;

  TCDB_RETURN_IF_ERROR(StartServing());
  {
    // Mark serving before the ack: once kCaughtUp reaches the primary,
    // AttachFollower returns and callers may immediately query or
    // refresh this follower.
    std::lock_guard<std::mutex> lock(mu_);
    serving_ = true;
    state_changed_.notify_all();
  }

  Frame caught_up;
  caught_up.type = FrameType::kCaughtUp;
  caught_up.a = tip;
  return WriteFrame(stream_.get(), caught_up);
}

Status Follower::StartServing() {
  const Epoch snapshot_epoch = db_->service()->snapshot_epoch();
  served_.store(snapshot_epoch);
  TCDB_ASSIGN_OR_RETURN(
      server_, ReachServer::Start(db_->service()->snapshot_shared(),
                                  options_.server));
  IndexRebuilderOptions rebuild_options;
  rebuild_options.index = options_.durable.dynamic.index;
  rebuild_options.initial_published_epoch = snapshot_epoch;
  // Driven synchronously (RebuildNow) from the apply loop and
  // RefreshSnapshot — the background thread is never started, so the
  // trigger/poll options are irrelevant.
  rebuilder_ = std::make_unique<IndexRebuilder>(
      db_->log(),
      [this](std::shared_ptr<const ReachCore> core, Epoch epoch,
             double seconds) -> Status {
        // A refused core leaves readers on the last one; the rebuilder
        // counts the failure and the error reaches PublishNow's caller.
        TCDB_RETURN_IF_ERROR(server_->SwapCore(core, epoch));
        // Mirror into the dynamic service so a later local checkpoint at
        // this epoch reuses the core instead of rebuilding it.
        db_->service()->PublishSnapshot(std::move(core), epoch, seconds);
        served_.store(epoch);
        std::lock_guard<std::mutex> lock(mu_);
        state_changed_.notify_all();
        return Status::Ok();
      },
      rebuild_options);
  // Readers must first see the bootstrap tip, not the checkpoint the
  // recovery snapshot was built at.
  return PublishNow();
}

Status Follower::PublishNow() { return rebuilder_->RebuildNow(); }

Status Follower::ApplyLoop() {
  for (;;) {
    Result<Frame> next = ReadFrame(stream_.get());
    if (!next.ok()) {
      if (next.status().code() == StatusCode::kOutOfRange) {
        return Status::Ok();  // clean end of stream
      }
      return next.status();
    }
    const Frame& frame = next.value();
    switch (frame.type) {
      case FrameType::kRecord:
        TCDB_RETURN_IF_ERROR(ApplyRecord(frame.a, frame.entry));
        break;
      case FrameType::kHeartbeat: {
        int64_t tip = tip_.load();
        while (frame.a > tip &&
               !tip_.compare_exchange_weak(tip, frame.a)) {
        }
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.heartbeats_received;
        break;
      }
      default:
        return Status::Corruption("unexpected frame in the record stream");
    }
  }
}

Status Follower::ApplyRecord(Epoch epoch, const MutationLog::Entry& entry) {
  if (epoch <= db_->epoch()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stale_records_skipped;
    return Status::Ok();
  }
  TCDB_ASSIGN_OR_RETURN(const Epoch applied,
                        db_->ApplyReplicated(epoch, entry));
  TCDB_CHECK_EQ(applied, epoch);
  applied_.store(epoch);
  int64_t tip = tip_.load();
  while (epoch > tip && !tip_.compare_exchange_weak(tip, epoch)) {
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.records_applied;
    state_changed_.notify_all();  // WaitCaughtUp watches applied_
  }
  ++records_since_checkpoint_;

  // The staleness bound: never let readers fall more than
  // max_apply_ahead applied records behind — rebuild synchronously
  // before accepting more of the stream (the backpressure this exerts
  // travels up the pipe to the primary).
  if (applied_.load() - served_.load() >= options_.max_apply_ahead) {
    TCDB_RETURN_IF_ERROR(PublishNow());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.forced_refreshes;
  }
  if (options_.checkpoint_every > 0 &&
      records_since_checkpoint_ >= options_.checkpoint_every) {
    // Publish first so the checkpoint cut reuses the fresh core.
    TCDB_RETURN_IF_ERROR(PublishNow());
    TCDB_RETURN_IF_ERROR(db_->Checkpoint());
    records_since_checkpoint_ = 0;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.local_checkpoints;
  }
  return Status::Ok();
}

Result<Follower::Answer> Follower::Query(NodeId src, NodeId dst) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    state_changed_.wait(lock, [this] {
      return serving_ || !error_.ok();
    });
    if (!error_.ok()) return error_;
    if (promoted_) {
      return Status::FailedPrecondition("follower was promoted");
    }
  }
  return server_->Query(src, dst);
}

Result<std::vector<Follower::Answer>> Follower::QueryBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    state_changed_.wait(lock, [this] {
      return serving_ || !error_.ok();
    });
    if (!error_.ok()) return error_;
    if (promoted_) {
      return Status::FailedPrecondition("follower was promoted");
    }
  }
  return server_->QueryBatch(pairs);
}

FollowerLag Follower::Lag() const {
  FollowerLag lag;
  lag.tip = tip_.load();
  lag.applied = applied_.load();
  lag.served = served_.load();
  return lag;
}

bool Follower::WaitCaughtUp(Epoch epoch, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return state_changed_.wait_for(lock, timeout, [this, epoch] {
    return applied_.load() >= epoch || !error_.ok();
  }) && error_.ok() && applied_.load() >= epoch;
}

void Follower::WaitForStreamEnd() {
  std::unique_lock<std::mutex> lock(mu_);
  state_changed_.wait(lock, [this] { return stream_ended_; });
}

Status Follower::RefreshSnapshot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (promoted_) {
      return Status::FailedPrecondition("follower was promoted");
    }
    if (!serving_) {
      if (!error_.ok()) return error_;
      return Status::FailedPrecondition("follower is not serving yet");
    }
  }
  return PublishNow();
}

Status Follower::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

FollowerStats Follower::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<std::unique_ptr<Primary>> Follower::Promote(PrimaryOptions options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (promoted_) {
      return Status::FailedPrecondition("follower already promoted");
    }
    if (!stream_ended_) {
      return Status::FailedPrecondition(
          "promote requires the replication stream to have ended");
    }
    if (!serving_ || db_ == nullptr) {
      if (!error_.ok()) return error_;
      return Status::FailedPrecondition("follower never started serving");
    }
    promoted_ = true;
    state_changed_.notify_all();
  }
  if (apply_thread_.joinable()) apply_thread_.join();
  // Publish the final position, then retire the read path: the promoted
  // primary is the sole owner of the stack from here on. (Callers must
  // have quiesced their own reader threads: Stop() only rejects later
  // queries and does not wait for calls already in flight.)
  TCDB_RETURN_IF_ERROR(PublishNow());
  server_->Stop();
  db_->service()->AdoptPublishedSnapshot();
  TCDB_RETURN_IF_ERROR(db_->wal()->Sync());
  return std::make_unique<Primary>(std::move(db_), options);
}

}  // namespace tcdb

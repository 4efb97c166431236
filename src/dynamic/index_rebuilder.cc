#include "dynamic/index_rebuilder.h"

#include <algorithm>
#include <utility>

namespace tcdb {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IndexRebuilder::IndexRebuilder(MutationLog* log, Publish publish,
                               IndexRebuilderOptions options)
    : log_(log), publish_(std::move(publish)), options_(options) {
  TCDB_CHECK(log_ != nullptr);
  TCDB_CHECK(publish_ != nullptr);
  TCDB_CHECK_GE(options_.mutations_per_rebuild, 1);
  last_published_epoch_ = options_.initial_published_epoch;
}

IndexRebuilder::~IndexRebuilder() { Stop(); }

void IndexRebuilder::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void IndexRebuilder::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
    wake_.notify_all();
  }
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

Status IndexRebuilder::RebuildNow() { return MaybeRebuild(/*force=*/true); }

int64_t IndexRebuilder::rebuilds_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rebuilds_published_;
}

int64_t IndexRebuilder::rebuild_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rebuild_failures_;
}

MutationLog::Epoch IndexRebuilder::published_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_published_epoch_;
}

Status IndexRebuilder::MaybeRebuild(bool force) {
  std::lock_guard<std::mutex> build_lock(build_mu_);
  MutationLog::Epoch last;
  MutationLog::Epoch failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last = last_published_epoch_;
    failed = last_failed_epoch_;
  }
  const MutationLog::Epoch now = log_->current_epoch();
  if (now <= last) return Status::Ok();  // nothing new since the last build
  if (!force) {
    // A failed epoch is not retried; the next attempt waits for as many
    // new mutations as a published one would.
    const MutationLog::Epoch base = std::max(last, failed);
    if (now <= failed ||
        (now - base < options_.mutations_per_rebuild &&
         !(options_.rebuild_advised && options_.rebuild_advised()))) {
      return Status::Ok();
    }
  }
  const MutationLog::ArcSnapshot snap = log_->SnapshotArcs();
  const double start = MonotonicSeconds();
  Result<std::shared_ptr<const ReachCore>> core =
      ReachCore::Build(snap.arcs, log_->num_nodes(), options_.index);
  const double seconds = MonotonicSeconds() - start;
  const Status status =
      core.ok() ? publish_(std::move(core).value(), snap.epoch, seconds)
                : core.status();
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    last_failed_epoch_ = std::max(last_failed_epoch_, snap.epoch);
    ++rebuild_failures_;
    return status;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_published_epoch_ = std::max(last_published_epoch_, snap.epoch);
    ++rebuilds_published_;
  }
  return Status::Ok();
}

void IndexRebuilder::ThreadLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait_for(lock, options_.poll_interval,
                     [&] { return stopping_; });
      if (stopping_) return;
    }
    // A failure (a label budget the grown graph no longer fits, say) is
    // counted inside and leaves the last published snapshot serving.
    MaybeRebuild(/*force=*/false);
  }
}

}  // namespace tcdb

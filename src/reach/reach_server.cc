#include "reach/reach_server.h"

#include <string>
#include <utility>

namespace tcdb {

namespace {

// Source of ReachServer::id_. Ids are never reused, so a thread's cached
// publication can never be mistaken for one of a later server that
// happens to occupy the same address.
std::atomic<uint64_t> next_server_id{1};

}  // namespace

Result<std::unique_ptr<ReachServer>> ReachServer::Start(
    const ArcList& arcs, NodeId num_nodes,
    const ReachServerOptions& options) {
  TCDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ReachCore> core,
      ReachCore::Build(arcs, num_nodes, options.service.index));
  return Start(std::move(core), options);
}

Result<std::unique_ptr<ReachServer>> ReachServer::Start(
    std::shared_ptr<const ReachCore> core,
    const ReachServerOptions& options) {
  if (core == nullptr) {
    return Status::InvalidArgument("null reach core");
  }
  auto server = std::unique_ptr<ReachServer>(new ReachServer());
  server->id_ = next_server_id.fetch_add(1, std::memory_order_relaxed);
  server->core_ = std::move(core);
  server->service_options_ = options.service;
  server->published_ = std::make_shared<const Publication>(
      Publication{server->core_, 0, 0});
  return server;
}

void ReachServer::SetClockForTesting(
    const std::function<std::function<double()>()>& make_clock) {
  std::lock_guard<std::mutex> lanes_lock(lanes_mu_);
  make_clock_ = make_clock;
  for (auto& [thread, lane] : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    lane->service->SetClockForTesting(make_clock());
  }
}

ReachServer::Lane* ReachServer::LaneOfThisThread() {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  std::unique_ptr<Lane>& lane = lanes_[std::this_thread::get_id()];
  if (lane == nullptr) {
    lane = std::make_unique<Lane>();
    lane->service = ReachService::Create(core_, service_options_);
    if (make_clock_) lane->service->SetClockForTesting(make_clock_());
  }
  return lane.get();
}

Status ReachServer::Admit(
    std::span<const std::pair<NodeId, NodeId>> pairs) const {
  const NodeId n = core_->num_input_nodes;
  for (const auto& [src, dst] : pairs) {
    if (src < 0 || src >= n || dst < 0 || dst >= n) {
      return Status::InvalidArgument(
          "query endpoint out of range: (" + std::to_string(src) + ", " +
          std::to_string(dst) + ") with " + std::to_string(n) + " nodes");
    }
  }
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("reach server is stopped");
  }
  return Status::Ok();
}

std::vector<ReachServer::Answer> ReachServer::ServeResidue(
    const View& view, std::span<const std::pair<NodeId, NodeId>> pairs,
    ReachService::BatchPass pass) {
  Lane* lane = view.lane;
  std::lock_guard<std::mutex> lock(lane->mu);
  if (lane->adopted_generation < view.publication->generation) {
    // SwapCore validated the universe, so adoption cannot fail.
    TCDB_CHECK(lane->service->AdoptCore(view.publication->core).ok());
    lane->adopted_generation = view.publication->generation;
  }
  lane->service->ServeResidue(pairs, &pass);
  // Service time, label pass plus residue step.
  lane->latency.Record(pass.seconds / static_cast<double>(pairs.size()),
                       static_cast<int64_t>(pairs.size()));
  return std::move(pass.answers);
}

Result<ReachServer::Answer> ReachServer::Query(NodeId src, NodeId dst) {
  const std::pair<NodeId, NodeId> pair{src, dst};
  TCDB_RETURN_IF_ERROR(Admit({&pair, 1}));
  const View view = Current();
  ReachService::BatchPass pass =
      view.lane->service->LabelPass(*view.publication->core, {&pair, 1});
  pass.stats.batches = 0;  // a single query is not a batch
  return ServeResidue(view, {&pair, 1}, std::move(pass))[0];
}

Result<std::vector<ReachServer::Answer>> ReachServer::QueryBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs) {
  TCDB_RETURN_IF_ERROR(Admit(pairs));
  if (pairs.empty()) return std::vector<Answer>();
  const View view = Current();
  ReachService::BatchPass pass =
      view.lane->service->LabelPass(*view.publication->core, pairs);
  return ServeResidue(view, pairs, std::move(pass));
}

Status ReachServer::SwapCore(std::shared_ptr<const ReachCore> core,
                             int64_t epoch) {
  if (core == nullptr) {
    return Status::InvalidArgument("SwapCore: null core");
  }
  if (core->num_input_nodes != core_->num_input_nodes) {
    return Status::InvalidArgument(
        "SwapCore: node universe mismatch (" +
        std::to_string(core->num_input_nodes) + " vs " +
        std::to_string(core_->num_input_nodes) + ")");
  }
  std::shared_ptr<const Publication> retired;  // freed after the unlock
  std::lock_guard<std::mutex> lock(slot_mu_);
  if (epoch < published_->epoch) {
    return Status::InvalidArgument(
        "SwapCore: epoch moved backwards (" + std::to_string(epoch) +
        " < " + std::to_string(published_->epoch) + ")");
  }
  retired = std::exchange(
      published_, std::make_shared<const Publication>(Publication{
                      std::move(core), epoch, published_->generation + 1}));
  // Stored under slot_mu_, so generations reach the atomic in order.
  generation_.store(published_->generation, std::memory_order_release);
  return Status::Ok();
}

std::shared_ptr<const ReachServer::Publication> ReachServer::Published()
    const {
  std::lock_guard<std::mutex> lock(slot_mu_);
  return published_;
}

ReachServer::View ReachServer::Current() {
  // One entry per thread: the server it last called, the publication it
  // read there and its lane. While that publication is still the newest,
  // a call costs one acquire load; only a swap, or a switch to another
  // server, takes slot_mu_ and touches the publication's shared reference
  // count, and only a switch of server looks up the lane again.
  struct Cached {
    uint64_t server = 0;
    std::shared_ptr<const Publication> publication;
    Lane* lane = nullptr;
  };
  thread_local Cached cached;
  if (cached.server != id_) {
    cached.publication = Published();
    cached.lane = LaneOfThisThread();
    cached.server = id_;
  } else if (cached.publication->generation !=
             generation_.load(std::memory_order_acquire)) {
    cached.publication = Published();
  }
  return {cached.publication.get(), cached.lane};
}

int64_t ReachServer::published_epoch() const { return Published()->epoch; }

void ReachServer::Stop() { stopped_.store(true, std::memory_order_release); }

ReachServerStats ReachServer::Snapshot() const {
  ReachServerStats snapshot;
  {
    std::lock_guard<std::mutex> lanes_lock(lanes_mu_);
    for (const auto& [thread, lane] : lanes_) {
      std::lock_guard<std::mutex> lock(lane->mu);
      snapshot.merged.Merge(lane->service->stats());
      snapshot.latency.Merge(lane->latency);
    }
  }
  const std::shared_ptr<const Publication> publication = Published();
  snapshot.core_swaps = static_cast<int64_t>(publication->generation);
  snapshot.published_epoch = publication->epoch;
  return snapshot;
}

}  // namespace tcdb

#include "reach/reach_server.h"

#include <string>
#include <utility>

namespace tcdb {

namespace {

// splitmix64 finalizer: spreads consecutive source ids across shards while
// keeping every query for one source on one shard.
uint64_t MixSource(NodeId src) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(src));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

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
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "num_shards must be >= 1, got " +
        std::to_string(options.num_shards));
  }
  auto server = std::unique_ptr<ReachServer>(new ReachServer());
  server->id_ = next_server_id.fetch_add(1, std::memory_order_relaxed);
  server->core_ = std::move(core);
  server->published_ = std::make_shared<const Publication>(
      Publication{server->core_, 0, 0});
  server->shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int32_t i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->service = ReachService::Create(server->core_, options.service);
    server->shards_.push_back(std::move(shard));
  }
  return server;
}

int32_t ReachServer::ShardOf(NodeId src) const {
  return static_cast<int32_t>(MixSource(src) %
                              static_cast<uint64_t>(shards_.size()));
}

void ReachServer::SetClockForTesting(
    const std::function<std::function<double()>()>& make_clock) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->service->SetClockForTesting(make_clock());
  }
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
    Shard* shard, const Publication& publication,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    ReachService::BatchPass pass) {
  std::lock_guard<std::mutex> lock(shard->mu);
  if (shard->adopted_generation < publication.generation) {
    // SwapCore validated the universe, so adoption cannot fail.
    TCDB_CHECK(shard->service->AdoptCore(publication.core).ok());
    shard->adopted_generation = publication.generation;
  }
  shard->service->ServeResidue(pairs, &pass);
  // Service time, label pass plus residue step; waiting for the mutex is
  // not counted.
  shard->latency.Record(pass.seconds / static_cast<double>(pairs.size()),
                        static_cast<int64_t>(pairs.size()));
  return std::move(pass.answers);
}

Result<ReachServer::Answer> ReachServer::Query(NodeId src, NodeId dst) {
  const std::pair<NodeId, NodeId> pair{src, dst};
  TCDB_RETURN_IF_ERROR(Admit({&pair, 1}));
  const Publication& publication = Current();
  Shard* shard = shards_[static_cast<size_t>(ShardOf(src))].get();
  ReachService::BatchPass pass =
      shard->service->LabelPass(*publication.core, {&pair, 1});
  pass.stats.batches = 0;  // a single query is not a batch
  return ServeResidue(shard, publication, {&pair, 1}, std::move(pass))[0];
}

Result<std::vector<ReachServer::Answer>> ReachServer::QueryBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs) {
  TCDB_RETURN_IF_ERROR(Admit(pairs));
  if (pairs.empty()) return std::vector<Answer>();
  const Publication& publication = Current();

  // Route by source hash, preserving input order within each shard: a
  // counting sort into one array, shard s at [begin[s], begin[s + 1]).
  std::vector<size_t> begin(shards_.size() + 1, 0);
  for (const auto& pair : pairs) {
    ++begin[static_cast<size_t>(ShardOf(pair.first)) + 1];
  }
  for (size_t s = 1; s <= shards_.size(); ++s) begin[s] += begin[s - 1];
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  std::vector<size_t> positions(pairs.size());
  std::vector<std::pair<NodeId, NodeId>> routed(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const size_t at = next[static_cast<size_t>(ShardOf(pairs[i].first))]++;
    positions[at] = i;
    routed[at] = pairs[i];
  }

  std::vector<Answer> answers(pairs.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard* shard = shards_[s].get();
    const std::span<const std::pair<NodeId, NodeId>> part =
        std::span(routed).subspan(begin[s], begin[s + 1] - begin[s]);
    const std::vector<Answer> served =
        ServeResidue(shard, publication, part,
                     shard->service->LabelPass(*publication.core, part));
    for (size_t k = 0; k < served.size(); ++k) {
      answers[positions[begin[s] + k]] = served[k];
    }
  }
  return answers;
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

const ReachServer::Publication& ReachServer::Current() const {
  // One entry per thread: the server it last called and the publication
  // it read there. While that is still the newest, a call costs one
  // acquire load; only a swap, or a switch to another server, takes
  // slot_mu_ and touches the publication's shared reference count.
  struct Cached {
    uint64_t server = 0;
    std::shared_ptr<const Publication> publication;
  };
  thread_local Cached cached;
  if (cached.server != id_ || cached.publication->generation !=
                                  generation_.load(std::memory_order_acquire)) {
    cached.publication = Published();
    cached.server = id_;
  }
  return *cached.publication;
}

int64_t ReachServer::published_epoch() const { return Published()->epoch; }

void ReachServer::Stop() { stopped_.store(true, std::memory_order_release); }

ReachServerStats ReachServer::Snapshot() const {
  ReachServerStats snapshot;
  snapshot.per_shard.reserve(shards_.size());
  snapshot.per_shard_latency.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    snapshot.merged.Merge(shard->service->stats());
    snapshot.latency.Merge(shard->latency);
    snapshot.per_shard.push_back(shard->service->stats());
    snapshot.per_shard_latency.push_back(shard->latency);
  }
  const std::shared_ptr<const Publication> publication = Published();
  snapshot.core_swaps = static_cast<int64_t>(publication->generation);
  snapshot.published_epoch = publication->epoch;
  return snapshot;
}

}  // namespace tcdb

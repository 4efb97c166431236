#include "replica/replica_bench.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "persist/durable_service.h"
#include "persist/fs.h"
#include "reach/load_driver.h"
#include "replica/follower.h"
#include "replica/primary.h"
#include "replica/transport.h"
#include "replica/wire.h"
#include "util/random.h"
#include "util/timer.h"

namespace tcdb {
namespace {

constexpr std::chrono::milliseconds kBarrierTimeout{60000};

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

Result<ReplicaBenchResult> RunReplicaBench(
    const ReplicaBenchOptions& options) {
  if (options.num_followers < 1 || options.clients_per_follower < 1 ||
      options.batch_size == 0 || options.graph.num_nodes < 2) {
    return Status::InvalidArgument("replica bench needs >= 1 follower, "
                                   ">= 1 client, and a non-trivial graph");
  }
  const NodeId n = options.graph.num_nodes;
  const ArcList arcs = GenerateDag(options.graph);

  MemFs primary_disk;
  DurableOptions db_options;
  db_options.wal.sync_each_append = true;
  db_options.wal.group_commit_records = options.group_commit_records;
  TCDB_ASSIGN_OR_RETURN(std::unique_ptr<DurableDynamicService> db,
                        DurableDynamicService::Create(&primary_disk, "db",
                                                      arcs, n, db_options));
  auto primary = std::make_unique<Primary>(std::move(db));

  std::vector<std::unique_ptr<MemFs>> disks;
  std::vector<std::unique_ptr<Follower>> followers;
  for (int32_t f = 0; f < options.num_followers; ++f) {
    disks.push_back(std::make_unique<MemFs>());
    FollowerOptions fo;
    fo.max_apply_ahead = options.max_apply_ahead;
    fo.server.num_shards = options.follower_shards;
    auto [primary_end, follower_end] =
        MakeInProcessPipe(options.pipe_capacity_bytes);
    TCDB_ASSIGN_OR_RETURN(
        std::unique_ptr<Follower> follower,
        Follower::Start(disks.back().get(), "replica",
                        std::move(follower_end), fo));
    TCDB_RETURN_IF_ERROR(primary->AttachFollower(std::move(primary_end)));
    followers.push_back(std::move(follower));
  }
  for (const auto& follower : followers) {
    if (!follower->WaitCaughtUp(primary->epoch(), kBarrierTimeout)) {
      return Status::Internal("follower never reached the bootstrap tip: " +
                              follower->error().ToString());
    }
    TCDB_RETURN_IF_ERROR(follower->RefreshSnapshot());
  }

  // One workload per follower so answer caches see distinct streams.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> workloads;
  for (int32_t f = 0; f < options.num_followers; ++f) {
    workloads.push_back(MakeServingWorkload(
        Digraph(n, arcs), options.queries_per_follower,
        options.seed + static_cast<uint64_t>(f)));
  }

  std::mutex error_mu;
  Status first_error = Status::Ok();
  std::vector<std::thread> clients;
  WallTimer query_timer;
  for (int32_t f = 0; f < options.num_followers; ++f) {
    Follower* follower = followers[static_cast<size_t>(f)].get();
    const auto& workload = workloads[static_cast<size_t>(f)];
    const size_t per_client =
        (workload.size() + static_cast<size_t>(options.clients_per_follower) -
         1) /
        static_cast<size_t>(options.clients_per_follower);
    for (int32_t c = 0; c < options.clients_per_follower; ++c) {
      const size_t begin =
          std::min(static_cast<size_t>(c) * per_client, workload.size());
      const size_t end = std::min(begin + per_client, workload.size());
      if (begin == end) continue;
      clients.emplace_back([&, follower, begin, end]() {
        std::span<const std::pair<NodeId, NodeId>> slice(
            workload.data() + begin, end - begin);
        for (size_t at = 0; at < slice.size(); at += options.batch_size) {
          const size_t take = std::min(options.batch_size, slice.size() - at);
          const auto batch = follower->QueryBatch(slice.subspan(at, take));
          if (!batch.ok()) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = batch.status();
            return;
          }
        }
      });
    }
  }

  // The mixed load: the owner thread mutates (and heartbeats) while the
  // clients read, sampling every follower's staleness as it goes.
  ReplicaBenchResult result;
  result.num_followers = options.num_followers;
  std::vector<int64_t> lag;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 31);
  WallTimer mutate_timer;
  for (int64_t op = 0; op < options.mutations; ++op) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId d = static_cast<NodeId>(rng.Uniform(0, n - 1));
    if (s == d) continue;
    const auto epoch = primary->db()->log()->HasArc(s, d)
                           ? primary->DeleteArc(s, d)
                           : primary->InsertArc(s, d);
    TCDB_RETURN_IF_ERROR(epoch.status());
    ++result.mutations_applied;
    if (options.heartbeat_every > 0 &&
        result.mutations_applied % options.heartbeat_every == 0) {
      TCDB_RETURN_IF_ERROR(primary->Heartbeat());
    }
    if (options.lag_sample_every > 0 &&
        result.mutations_applied % options.lag_sample_every == 0) {
      const int64_t tip = primary->epoch();
      for (const auto& follower : followers) {
        lag.push_back(std::max<int64_t>(0, tip - follower->Lag().served));
      }
    }
  }
  result.mutate_seconds = mutate_timer.ElapsedSeconds();

  for (std::thread& client : clients) client.join();
  result.query_seconds = query_timer.ElapsedSeconds();
  TCDB_RETURN_IF_ERROR(first_error);
  for (const auto& workload : workloads) {
    result.queries += static_cast<int64_t>(workload.size());
  }

  // Final read barrier: every follower must still converge to the tip.
  for (const auto& follower : followers) {
    if (!follower->WaitCaughtUp(primary->epoch(), kBarrierTimeout)) {
      return Status::Internal("follower never caught up after the trace: " +
                              follower->error().ToString());
    }
    TCDB_RETURN_IF_ERROR(follower->RefreshSnapshot());
    result.forced_refreshes += follower->stats().forced_refreshes;
  }
  result.records_shipped = primary->stats().records_shipped;
  result.heartbeats_sent = primary->stats().heartbeats_sent;

  std::sort(lag.begin(), lag.end());
  result.lag_samples = static_cast<int64_t>(lag.size());
  result.lag_p50 = Percentile(lag, 0.50);
  result.lag_p90 = Percentile(lag, 0.90);
  result.lag_p99 = Percentile(lag, 0.99);
  result.lag_max = lag.empty() ? 0 : lag.back();
  result.lag_bound =
      options.max_apply_ahead +
      static_cast<int64_t>(options.pipe_capacity_bytes) / kRecordFrameBytes +
      2;
  result.lag_within_bound = result.lag_max <= result.lag_bound;
  return result;
}

}  // namespace tcdb

#include "reach/load_driver.h"

#include <algorithm>
#include <thread>

#include "util/random.h"
#include "util/timer.h"

namespace tcdb {

std::vector<std::pair<NodeId, NodeId>> MakeServingWorkload(
    const Digraph& graph, int64_t count, uint64_t seed) {
  const NodeId n = graph.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (n <= 0 || count <= 0) return pairs;
  pairs.reserve(static_cast<size_t>(count));
  Rng rng(seed);

  auto uniform_pair = [&] {
    return std::pair<NodeId, NodeId>(
        static_cast<NodeId>(rng.Uniform(0, n - 1)),
        static_cast<NodeId>(rng.Uniform(0, n - 1)));
  };
  // Positive-biased: walk 1..8 random arcs forward from a random start.
  auto walk_pair = [&] {
    NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    NodeId v = u;
    const int64_t steps = rng.Uniform(1, 8);
    for (int64_t s = 0; s < steps; ++s) {
      const std::span<const NodeId> succ = graph.Successors(v);
      if (succ.empty()) break;
      v = succ[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(succ.size()) - 1))];
    }
    return std::pair<NodeId, NodeId>(u, v);
  };
  std::vector<std::pair<NodeId, NodeId>> hot;
  for (int i = 0; i < 64; ++i) hot.push_back(uniform_pair());

  for (int64_t i = 0; i < count; ++i) {
    const double mix = rng.NextDouble();
    if (mix < 0.6) {
      pairs.push_back(uniform_pair());
    } else if (mix < 0.9) {
      pairs.push_back(walk_pair());
    } else {
      pairs.push_back(hot[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(hot.size()) - 1))]);
    }
  }
  return pairs;
}

std::vector<std::pair<NodeId, NodeId>> MakeModelWorkload(
    const Digraph& graph, const TrafficModelOptions& options, int64_t count,
    WorkloadDecideProbe probe) {
  if (graph.NumNodes() <= 0 || count <= 0) return {};
  TrafficModel model(graph, options, std::move(probe));
  return model.Take(count);
}

WorkloadDecideProbe MakeLadderProbe(std::shared_ptr<const ReachCore> core) {
  return [core = std::move(core)](NodeId u, NodeId v) {
    return core->Decide(u, v) != ReachIndex::Verdict::kUnknown;
  };
}

Result<LoadReport> RunServingLoad(
    ReachServer* server, std::span<const std::pair<NodeId, NodeId>> pairs,
    int32_t num_clients, size_t batch_size) {
  if (num_clients < 1) {
    return Status::InvalidArgument("num_clients must be >= 1");
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  const size_t total = pairs.size();
  const size_t clients = std::min<size_t>(
      static_cast<size_t>(num_clients), std::max<size_t>(total, 1));

  // One status slot per client; no synchronization needed beyond join.
  std::vector<Status> statuses(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  WallTimer timer;
  for (size_t c = 0; c < clients; ++c) {
    // Contiguous slice [begin, end) of the workload for this client.
    const size_t begin = total * c / clients;
    const size_t end = total * (c + 1) / clients;
    threads.emplace_back([server, pairs, begin, end, batch_size,
                          status = &statuses[c]] {
      for (size_t at = begin; at < end; at += batch_size) {
        const size_t len = std::min(batch_size, end - at);
        Result<std::vector<ReachServer::Answer>> answers =
            server->QueryBatch(pairs.subspan(at, len));
        if (!answers.ok()) {
          *status = answers.status();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoadReport report;
  report.seconds = timer.ElapsedSeconds();
  report.queries = static_cast<int64_t>(total);
  for (const Status& status : statuses) {
    TCDB_RETURN_IF_ERROR(status);
  }
  return report;
}

}  // namespace tcdb

#include "reach/reach_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "graph/algorithms.h"

namespace tcdb {

Result<std::shared_ptr<const ReachCore>> ReachCore::Build(
    const ArcList& arcs, NodeId num_nodes,
    const ReachIndexOptions& options) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("negative node count");
  }
  for (const Arc& arc : arcs) {
    if (arc.src < 0 || arc.src >= num_nodes || arc.dst < 0 ||
        arc.dst >= num_nodes) {
      return Status::InvalidArgument(
          "arc endpoint out of range: (" + std::to_string(arc.src) + ", " +
          std::to_string(arc.dst) + ") with " + std::to_string(num_nodes) +
          " nodes");
    }
  }
  auto core = std::make_shared<ReachCore>();
  core->num_input_nodes = num_nodes;

  // Condense once; on an acyclic input this only renumbers the nodes.
  Condensation condensation = Condense(Digraph(num_nodes, arcs));
  core->dag = std::move(condensation.dag);
  core->node_map = std::move(condensation.node_map);
  core->scc_size.assign(core->dag.NumNodes(), 0);
  for (const NodeId component : core->node_map) {
    ++core->scc_size[component];
  }

  if (options.backend == ReachBackend::kChain) {
    core->backend = ReachBackend::kChain;
    TCDB_ASSIGN_OR_RETURN(core->chain,
                          ChainIndex::Build(core->dag, options.chain));
  } else {
    TCDB_ASSIGN_OR_RETURN(core->index, ReachIndex::Build(core->dag, options));
    if (options.oreach) {
      // Battery pivot training sees the traffic in condensation ids and
      // treats everything the base ladder (rules + adjacency) already
      // decides as covered, so the greedy selection spends its pivots on
      // the true fallback residue.
      std::vector<std::pair<NodeId, NodeId>> traffic;
      traffic.reserve(options.oreach_traffic.size());
      for (const auto& [src, dst] : options.oreach_traffic) {
        if (src < 0 || src >= num_nodes || dst < 0 || dst >= num_nodes) {
          continue;
        }
        const NodeId csrc = core->node_map[src];
        const NodeId cdst = core->node_map[dst];
        if (csrc != cdst) traffic.emplace_back(csrc, cdst);
      }
      const ReachIndex& index = core->index;
      const Digraph& dag = core->dag;
      auto base_decides = [&index, &dag](NodeId u, NodeId v) {
        if (index.TryDecide(u, v) != ReachIndex::Verdict::kUnknown) {
          return true;
        }
        const std::span<const NodeId> successors = dag.Successors(u);
        return std::binary_search(successors.begin(), successors.end(), v);
      };
      TCDB_ASSIGN_OR_RETURN(
          core->battery,
          ObservationBattery::Build(core->dag, options.oreach_options,
                                    traffic, base_decides));
      core->has_battery = true;
    }
  }
  return std::shared_ptr<const ReachCore>(std::move(core));
}

ReachIndex::Verdict ReachCore::DecideCondensed(NodeId csrc, NodeId cdst,
                                               ReachStage* stage,
                                               ReachRule* rule) const {
  if (backend == ReachBackend::kChain) {
    if (stage != nullptr) *stage = ReachStage::kChainFrontier;
    if (rule != nullptr) *rule = ReachRule::kChainFrontier;
    return chain.Reaches(csrc, cdst) ? ReachIndex::Verdict::kYes
                                     : ReachIndex::Verdict::kNo;
  }
  return index.TryDecide(csrc, cdst, stage, rule);
}

void ReachCore::SerializeAppend(std::string* out) const {
  codec::PutI32(out, num_input_nodes);
  codec::PutU8(out, static_cast<uint8_t>(backend));
  const NodeId dag_nodes = dag.NumNodes();
  codec::PutI32(out, dag_nodes);
  const ArcList arcs = dag.ToArcs();
  codec::PutU64(out, arcs.size());
  for (const Arc& arc : arcs) {
    codec::PutI32(out, arc.src);
    codec::PutI32(out, arc.dst);
  }
  for (const NodeId component : node_map) codec::PutI32(out, component);
  for (const int32_t size : scc_size) codec::PutI32(out, size);
  if (backend == ReachBackend::kChain) {
    chain.SerializeAppend(out);
  } else {
    index.SerializeAppend(out);
    codec::PutU8(out, has_battery ? 1 : 0);
    if (has_battery) battery.SerializeAppend(out);
  }
}

Result<std::shared_ptr<const ReachCore>> ReachCore::Deserialize(
    codec::Reader* reader) {
  auto core = std::make_shared<ReachCore>();
  NodeId dag_nodes = 0;
  uint64_t num_arcs = 0;
  uint8_t backend_byte = 0;
  if (!reader->ReadI32(&core->num_input_nodes) ||
      !reader->ReadU8(&backend_byte) || !reader->ReadI32(&dag_nodes) ||
      !reader->ReadU64(&num_arcs) || core->num_input_nodes < 0 ||
      dag_nodes < 0 || dag_nodes > core->num_input_nodes ||
      backend_byte > static_cast<uint8_t>(ReachBackend::kChain)) {
    return Status::Corruption("reach core image truncated");
  }
  core->backend = static_cast<ReachBackend>(backend_byte);
  // 8 bytes per arc: reject oversized counts before allocating.
  if (num_arcs * 8 > reader->remaining()) {
    return Status::Corruption("reach core arc count exceeds image");
  }
  ArcList arcs(num_arcs);
  for (Arc& arc : arcs) {
    if (!reader->ReadI32(&arc.src) || !reader->ReadI32(&arc.dst)) {
      return Status::Corruption("reach core image truncated");
    }
    if (arc.src < 0 || arc.src >= dag_nodes || arc.dst < 0 ||
        arc.dst >= dag_nodes) {
      return Status::Corruption("reach core arc endpoint out of range");
    }
  }
  core->dag = Digraph(dag_nodes, arcs);
  core->node_map.resize(core->num_input_nodes);
  for (NodeId& component : core->node_map) {
    if (!reader->ReadI32(&component) || component < 0 ||
        component >= dag_nodes) {
      return Status::Corruption("reach core node map invalid");
    }
  }
  core->scc_size.resize(dag_nodes);
  for (int32_t& size : core->scc_size) {
    if (!reader->ReadI32(&size) || size <= 0) {
      return Status::Corruption("reach core scc sizes invalid");
    }
  }
  if (core->backend == ReachBackend::kChain) {
    TCDB_ASSIGN_OR_RETURN(core->chain, ChainIndex::Deserialize(reader));
    if (core->chain.num_nodes() != dag_nodes) {
      return Status::Corruption("reach core chain index size mismatch");
    }
  } else {
    TCDB_ASSIGN_OR_RETURN(core->index, ReachIndex::Deserialize(reader));
    if (core->index.num_nodes() != dag_nodes) {
      return Status::Corruption("reach core index size mismatch");
    }
    uint8_t battery_byte = 0;
    if (!reader->ReadU8(&battery_byte) || battery_byte > 1) {
      return Status::Corruption("reach core battery flag invalid");
    }
    if (battery_byte != 0) {
      TCDB_ASSIGN_OR_RETURN(core->battery,
                            ObservationBattery::Deserialize(reader));
      if (core->battery.num_nodes() != dag_nodes) {
        return Status::Corruption("reach core battery size mismatch");
      }
      core->has_battery = true;
    }
  }
  return std::shared_ptr<const ReachCore>(std::move(core));
}

Result<std::unique_ptr<ReachService>> ReachService::Build(
    const ArcList& arcs, NodeId num_nodes,
    const ReachServiceOptions& options) {
  TCDB_ASSIGN_OR_RETURN(std::shared_ptr<const ReachCore> core,
                        ReachCore::Build(arcs, num_nodes, options.index));
  return Create(std::move(core), options);
}

std::unique_ptr<ReachService> ReachService::Create(
    std::shared_ptr<const ReachCore> core,
    const ReachServiceOptions& options) {
  TCDB_CHECK(core != nullptr);
  auto service = std::unique_ptr<ReachService>(new ReachService());
  service->core_ = std::move(core);
  service->options_ = options;
  service->cache_ = ReachAnswerCache(options.cache_capacity);
  return service;
}

Status ReachService::AdoptCore(std::shared_ptr<const ReachCore> core) {
  if (core == nullptr) {
    return Status::InvalidArgument("AdoptCore: null core");
  }
  if (core->num_input_nodes != core_->num_input_nodes) {
    return Status::InvalidArgument(
        "AdoptCore: node universe mismatch (" +
        std::to_string(core->num_input_nodes) + " vs " +
        std::to_string(core_->num_input_nodes) + ")");
  }
  core_ = std::move(core);
  // Cached answers and BFS scratch sizing were derived from the old core;
  // neither may leak into queries against the new one.
  cache_.BumpGeneration();
  scratch_ = ReachIndex::SearchScratch();
  return Status::Ok();
}

ReachIndex::Verdict ReachService::TryServeFast(NodeId src, NodeId dst,
                                               Answer* answer,
                                               ReachRule* rule) {
  bool cached = false;
  if (cache_.Lookup(src, dst, &cached)) {
    *answer = {cached, ReachStage::kCache};
    *rule = ReachRule::kCacheHit;
    return cached ? ReachIndex::Verdict::kYes : ReachIndex::Verdict::kNo;
  }
  const NodeId csrc = core_->node_map[src];
  const NodeId cdst = core_->node_map[dst];
  // src == dst (reflexivity) or one shared strongly connected component.
  if (csrc == cdst) {
    *answer = {true, ReachStage::kTrivial};
    *rule = src == dst ? ReachRule::kSelf : ReachRule::kSameScc;
    return ReachIndex::Verdict::kYes;
  }
  ReachStage stage = ReachStage::kTrivial;
  ReachIndex::Verdict verdict =
      core_->DecideCondensed(csrc, cdst, &stage, rule);
  if (verdict == ReachIndex::Verdict::kUnknown) {
    // Next cheap rung: a direct arc (binary search over the sorted CSR
    // row). Covers the non-tree arcs the interval labels cannot witness.
    const std::span<const NodeId> successors = core_->dag.Successors(csrc);
    if (std::binary_search(successors.begin(), successors.end(), cdst)) {
      verdict = ReachIndex::Verdict::kYes;
      stage = ReachStage::kAdjacency;
      *rule = ReachRule::kAdjacency;
    }
  }
  if (verdict == ReachIndex::Verdict::kUnknown && core_->has_battery) {
    // Observation battery: the last O(1) rung before the search
    // fallbacks.
    const ObservationBattery::Verdict observed =
        core_->battery.TryDecide(csrc, cdst, rule);
    if (observed != ObservationBattery::Verdict::kUnknown) {
      verdict = observed == ObservationBattery::Verdict::kYes
                    ? ReachIndex::Verdict::kYes
                    : ReachIndex::Verdict::kNo;
      stage = ReachStage::kObservation;
    }
  }
  if (verdict != ReachIndex::Verdict::kUnknown) {
    // Deliberately NOT inserted into the answer cache: an O(1)-decided
    // answer re-derives in nanoseconds, so caching it only evicts the
    // fallback answers whose recomputation actually costs something.
    // Fallback answers are inserted at the fallback sites instead.
    *answer = {verdict == ReachIndex::Verdict::kYes, stage};
  }
  return verdict;
}

double ReachService::NowSeconds() const {
  if (clock_) return clock_();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<ReachService::Answer> ReachService::Query(NodeId src, NodeId dst) {
  if (src < 0 || src >= core_->num_input_nodes || dst < 0 ||
      dst >= core_->num_input_nodes) {
    return Status::InvalidArgument(
        "query endpoint out of range: (" + std::to_string(src) + ", " +
        std::to_string(dst) + ") with " + std::to_string(core_->num_input_nodes) +
        " nodes");
  }
  const double start = NowSeconds();
  Answer answer;
  ReachRule rule = ReachRule::kFallback;
  if (TryServeFast(src, dst, &answer, &rule) !=
      ReachIndex::Verdict::kUnknown) {
    stats_.Record(answer.stage, rule, answer.reachable,
                  NowSeconds() - start);
    return answer;
  }
  answer = ServeFallback(core_->node_map[src], core_->node_map[dst]);
  if (cache_.Insert(src, dst, answer.reachable)) {
    ++stats_.cache_insertions;
  }
  stats_.Record(answer.stage, ReachRule::kFallback, answer.reachable,
                NowSeconds() - start);
  return answer;
}

ReachService::Answer ReachService::ServeFallback(NodeId csrc, NodeId cdst) {
  ReachIndex::Verdict verdict = ReachIndex::Verdict::kUnknown;
  if (options_.bfs_budget > 0) {
    int64_t expansions = 0;
    verdict = core_->index.PrunedBfs(core_->dag, csrc, cdst,
                                     options_.bfs_budget, &scratch_,
                                     &expansions);
    stats_.bfs_expansions += expansions;
  }
  if (verdict == ReachIndex::Verdict::kUnknown) {
    int64_t expansions = 0;
    verdict = core_->index.PrunedBfs(core_->dag, csrc, cdst,
                                     std::numeric_limits<int64_t>::max(),
                                     &scratch_, &expansions);
    stats_.bfs_expansions += expansions;
    TCDB_CHECK(verdict != ReachIndex::Verdict::kUnknown);
  }
  return Answer{verdict == ReachIndex::Verdict::kYes, ReachStage::kPrunedBfs};
}

Result<std::vector<ReachService::Answer>> ReachService::QueryBatch(
    std::span<const std::pair<NodeId, NodeId>> pairs) {
  for (const auto& [src, dst] : pairs) {
    if (src < 0 || src >= core_->num_input_nodes || dst < 0 ||
        dst >= core_->num_input_nodes) {
      return Status::InvalidArgument(
          "batch endpoint out of range: (" + std::to_string(src) + ", " +
          std::to_string(dst) + ")");
    }
  }
  ++stats_.batches;
  std::vector<Answer> answers(pairs.size());

  // Pass 1: cache + O(1) labels. The residue is grouped by condensed
  // source so each fallback search serves all of that source's targets.
  // Time spent classifying a residue query here still belongs to that
  // query's latency, so it is carried into its group's pass-2 share.
  std::unordered_map<NodeId, std::vector<size_t>> residue;
  std::unordered_map<NodeId, double> residue_pass1_seconds;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double start = NowSeconds();
    ReachRule rule = ReachRule::kFallback;
    if (TryServeFast(pairs[i].first, pairs[i].second, &answers[i], &rule) !=
        ReachIndex::Verdict::kUnknown) {
      stats_.Record(answers[i].stage, rule, answers[i].reachable,
                    NowSeconds() - start);
      continue;
    }
    const NodeId csrc = core_->node_map[pairs[i].first];
    residue[csrc].push_back(i);
    residue_pass1_seconds[csrc] += NowSeconds() - start;
  }

  for (auto& [csrc, indices] : residue) {
    const double start = NowSeconds();
    // Distinct condensed targets of this source (with their pair indices;
    // duplicate queries resolve together).
    std::vector<NodeId> targets;
    std::vector<std::vector<size_t>> target_indices;
    std::unordered_map<NodeId, size_t> target_slot;
    for (const size_t i : indices) {
      const NodeId cdst = core_->node_map[pairs[i].second];
      const auto [it, inserted] =
          target_slot.emplace(cdst, targets.size());
      if (inserted) {
        targets.push_back(cdst);
        target_indices.emplace_back();
      }
      target_indices[it->second].push_back(i);
    }

    std::vector<bool> reached;
    bool definitive = false;
    if (options_.bfs_budget > 0) {
      int64_t expansions = 0;
      definitive = core_->index.PrunedMultiBfs(core_->dag, csrc, targets,
                                               options_.bfs_budget, &reached,
                                               &scratch_, &expansions);
      stats_.bfs_expansions += expansions;
    }
    if (!definitive) {
      int64_t expansions = 0;
      definitive = core_->index.PrunedMultiBfs(
          core_->dag, csrc, targets, std::numeric_limits<int64_t>::max(),
          &reached, &scratch_, &expansions);
      stats_.bfs_expansions += expansions;
      TCDB_CHECK(definitive);
    }

    // The group's latency — fallback work plus the pass-1 time its
    // queries already spent — is shared evenly across its queries.
    const double group_seconds =
        (NowSeconds() - start) + residue_pass1_seconds[csrc];
    const double per_query_seconds =
        group_seconds / static_cast<double>(indices.size());
    for (size_t t = 0; t < targets.size(); ++t) {
      for (const size_t i : target_indices[t]) {
        answers[i] = {reached[t], ReachStage::kPrunedBfs};
        if (cache_.Insert(pairs[i].first, pairs[i].second, reached[t])) {
          ++stats_.cache_insertions;
        }
        stats_.Record(ReachStage::kPrunedBfs, ReachRule::kFallback,
                      reached[t], per_query_seconds);
      }
    }
  }
  return answers;
}

}  // namespace tcdb

#include "reach/reach_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "graph/algorithms.h"

namespace tcdb {

namespace {

// Fills core->index over core->dag, plus the observation battery when
// options.oreach is set.
Status BuildLabelCore(const ReachIndexOptions& options, ReachCore* core) {
  core->backend = ReachBackend::kLabels;
  TCDB_ASSIGN_OR_RETURN(core->index, ReachIndex::Build(core->dag, options));
  if (!options.oreach) return Status::Ok();
  // Battery pivot training sees the traffic in condensation ids and
  // treats everything the base ladder (rules + adjacency) already
  // decides as covered, so the greedy selection spends its pivots on the
  // true fallback residue.
  std::vector<std::pair<NodeId, NodeId>> traffic;
  traffic.reserve(options.oreach_traffic.size());
  for (const auto& [src, dst] : options.oreach_traffic) {
    if (src < 0 || src >= core->num_input_nodes || dst < 0 ||
        dst >= core->num_input_nodes) {
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
      core->battery, ObservationBattery::Build(core->dag, options.oreach_options,
                                               traffic, base_decides));
  core->has_battery = true;
  return Status::Ok();
}

}  // namespace

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

  if (options.backend == ReachBackend::kLabels) {
    TCDB_RETURN_IF_ERROR(BuildLabelCore(options, core.get()));
    return std::shared_ptr<const ReachCore>(std::move(core));
  }
  // kChain, or kAuto's attempt under the tighter of its two budgets; a
  // refused attempt falls back to the label core.
  ChainIndexOptions chain_options = options.chain;
  if (options.backend == ReachBackend::kAuto) {
    const int64_t n = core->dag.NumNodes();
    const int64_t label_budget =
        kAutoChainBudgetFactor *
        LabelCoreBytes(n, core->dag.NumArcs(), options.num_supportive);
    chain_options.max_label_bytes =
        std::min(label_budget, ChainLabelBudget(options.chain, n));
  }
  ChainBudgetReport report;
  Result<ChainIndex> chain =
      ChainIndex::Build(core->dag, chain_options, &report);
  core->chain_count = report.chains;
  core->chain_stop_rank = report.stopped_at_rank;
  core->chain_bytes = report.needed_bytes;
  core->chain_budget_bytes = report.budget_bytes;
  if (chain.ok()) {
    core->backend = ReachBackend::kChain;
    core->chain = std::move(chain).value();
  } else if (options.backend == ReachBackend::kAuto &&
             chain.status().code() == StatusCode::kResourceExhausted) {
    TCDB_RETURN_IF_ERROR(BuildLabelCore(options, core.get()));
  } else {
    return chain.status();
  }
  return std::shared_ptr<const ReachCore>(std::move(core));
}

std::string ReachCore::BackendSummary() const {
  const std::string budget =
      chain_budget_bytes > 0
          ? " of " + std::to_string(chain_budget_bytes) + " B budget"
          : "";
  if (backend == ReachBackend::kChain) {
    return "backend chain: k=" + std::to_string(chain_count) + ", frontier " +
           std::to_string(chain_bytes) + " B" + budget;
  }
  if (chain_budget_bytes == 0) return "backend labels: no chain build";
  return "backend labels: chain build refused at rank " +
         std::to_string(chain_stop_rank) + " of " +
         std::to_string(dag.NumNodes()) + " with " +
         std::to_string(chain_count) + " chains, frontier >= " +
         std::to_string(chain_bytes) + " B" + budget;
}

ReachIndex::Verdict ReachCore::DecideCondensed(NodeId csrc, NodeId cdst,
                                               ReachRule* rule) const {
  if (backend == ReachBackend::kChain) {
    if (rule != nullptr) *rule = ReachRule::kChainFrontier;
    return chain.Reaches(csrc, cdst) ? ReachIndex::Verdict::kYes
                                     : ReachIndex::Verdict::kNo;
  }
  return index.TryDecide(csrc, cdst, rule);
}

ReachIndex::Verdict ReachCore::Decide(NodeId src, NodeId dst,
                                     ReachRule* rule) const {
  ReachRule unused_rule;
  if (rule == nullptr) rule = &unused_rule;
  const NodeId csrc = node_map[src];
  const NodeId cdst = node_map[dst];
  // src == dst (reflexivity) or one shared strongly connected component.
  if (csrc == cdst) {
    *rule = src == dst ? ReachRule::kSelf : ReachRule::kSameScc;
    return ReachIndex::Verdict::kYes;
  }
  const ReachIndex::Verdict verdict = DecideCondensed(csrc, cdst, rule);
  if (verdict != ReachIndex::Verdict::kUnknown) return verdict;
  // A direct arc covers the non-tree arcs the interval labels cannot
  // witness.
  const std::span<const NodeId> successors = dag.Successors(csrc);
  if (std::binary_search(successors.begin(), successors.end(), cdst)) {
    *rule = ReachRule::kAdjacency;
    return ReachIndex::Verdict::kYes;
  }
  if (!has_battery) return ReachIndex::Verdict::kUnknown;
  const ObservationBattery::Verdict observed =
      battery.TryDecide(csrc, cdst, rule);
  if (observed == ObservationBattery::Verdict::kUnknown) {
    return ReachIndex::Verdict::kUnknown;
  }
  return observed == ObservationBattery::Verdict::kYes
             ? ReachIndex::Verdict::kYes
             : ReachIndex::Verdict::kNo;
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
      dag_nodes < 0 || dag_nodes > core->num_input_nodes) {
    return Status::Corruption("reach core image truncated");
  }
  // A built core is kLabels or kChain; kAuto is an option, never a tag.
  if (backend_byte > static_cast<uint8_t>(ReachBackend::kChain)) {
    return Status::Corruption("reach core backend tag invalid");
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
    core->chain_count = core->chain.num_chains();
    core->chain_bytes = core->chain.FrontierBytes();
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
  const std::pair<NodeId, NodeId> pair{src, dst};
  BatchPass pass = LabelPass(*core_, {&pair, 1});
  pass.stats.batches = 0;  // a single query is not a batch
  ServeResidue({&pair, 1}, &pass);
  return pass.answers[0];
}

void ReachService::SearchGroup(NodeId csrc, std::span<const NodeId> targets,
                               std::vector<bool>* reached) {
  const int64_t unbounded = std::numeric_limits<int64_t>::max();
  if (targets.size() == 1) {
    ReachIndex::Verdict verdict = ReachIndex::Verdict::kUnknown;
    for (const int64_t budget : {options_.bfs_budget, unbounded}) {
      if (budget <= 0) continue;
      int64_t expansions = 0;
      verdict = core_->index.PrunedBfs(core_->dag, csrc, targets[0], budget,
                                       &scratch_, &expansions);
      stats_.bfs_expansions += expansions;
      if (verdict != ReachIndex::Verdict::kUnknown) break;
    }
    TCDB_CHECK(verdict != ReachIndex::Verdict::kUnknown);
    reached->assign(1, verdict == ReachIndex::Verdict::kYes);
    return;
  }
  bool definitive = false;
  for (const int64_t budget : {options_.bfs_budget, unbounded}) {
    if (budget <= 0) continue;
    int64_t expansions = 0;
    definitive = core_->index.PrunedMultiBfs(core_->dag, csrc, targets, budget,
                                             reached, &scratch_, &expansions);
    stats_.bfs_expansions += expansions;
    if (definitive) break;
  }
  TCDB_CHECK(definitive);
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
  BatchPass pass = LabelPass(*core_, pairs);
  ServeResidue(pairs, &pass);
  return std::move(pass.answers);
}

ReachService::BatchPass ReachService::LabelPass(
    const ReachCore& core,
    std::span<const std::pair<NodeId, NodeId>> pairs) const {
  BatchPass pass;
  pass.answers.resize(pairs.size());
  pass.stats.batches = 1;
  pass.core = &core;
  // Time is chained: each query is charged the span since the previous
  // one ended, one clock reading per query.
  const double start = NowSeconds();
  double mark = start;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ReachRule rule = ReachRule::kSelf;
    const ReachIndex::Verdict verdict =
        core.Decide(pairs[i].first, pairs[i].second, &rule);
    const double now = NowSeconds();
    if (verdict == ReachIndex::Verdict::kUnknown) {
      pass.residue.push_back(i);
      pass.residue_seconds.push_back(now - mark);
    } else {
      // Deliberately never cached: an O(1)-decided answer re-derives in
      // nanoseconds, so caching it would only evict the fallback answers
      // whose recomputation costs something.
      pass.answers[i] = {verdict == ReachIndex::Verdict::kYes, rule};
      pass.stats.Record(rule, pass.answers[i].reachable, now - mark);
    }
    mark = now;
  }
  pass.seconds = mark - start;
  return pass;
}

void ReachService::ServeResidue(
    std::span<const std::pair<NodeId, NodeId>> pairs, BatchPass* pass) {
  stats_.Merge(pass->stats);
  if (pass->residue.empty()) return;
  std::vector<Answer>& answers = pass->answers;

  // Time is chained from here: each cache hit and each fallback group is
  // charged the span since the previous one ended, on top of the
  // label-pass time its queries already spent.
  const double start = NowSeconds();
  double mark = start;
  // Cache hits end here, in input order; the rest is grouped by condensed
  // source so each fallback search serves all of that source's targets.
  std::unordered_map<NodeId, std::vector<size_t>> residue;
  std::unordered_map<NodeId, double> residue_seconds;
  const bool relabel = pass->core != core_.get();
  for (size_t k = 0; k < pass->residue.size(); ++k) {
    const size_t i = pass->residue[k];
    ReachRule rule = ReachRule::kSelf;
    ReachIndex::Verdict verdict = ReachIndex::Verdict::kUnknown;
    if (relabel) {
      verdict = core_->Decide(pairs[i].first, pairs[i].second, &rule);
    }
    bool cached = false;
    if (verdict == ReachIndex::Verdict::kUnknown &&
        cache_.Lookup(pairs[i].first, pairs[i].second, &cached)) {
      rule = ReachRule::kCacheHit;
      verdict = cached ? ReachIndex::Verdict::kYes : ReachIndex::Verdict::kNo;
    }
    if (verdict == ReachIndex::Verdict::kUnknown) {
      const NodeId csrc = core_->node_map[pairs[i].first];
      residue[csrc].push_back(i);
      residue_seconds[csrc] += pass->residue_seconds[k];
      continue;
    }
    answers[i] = {verdict == ReachIndex::Verdict::kYes, rule};
    const double now = NowSeconds();
    stats_.Record(rule, answers[i].reachable,
                  (now - mark) + pass->residue_seconds[k]);
    mark = now;
  }

  for (auto& [csrc, indices] : residue) {
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
    SearchGroup(csrc, targets, &reached);

    // The group's latency — fallback work plus the time its
    // queries already spent — is shared evenly across its queries.
    const double end = NowSeconds();
    const double group_seconds = (end - mark) + residue_seconds[csrc];
    mark = end;
    const double per_query_seconds =
        group_seconds / static_cast<double>(indices.size());
    for (size_t t = 0; t < targets.size(); ++t) {
      for (const size_t i : target_indices[t]) {
        answers[i] = {reached[t], ReachRule::kPrunedBfs};
        if (cache_.Insert(pairs[i].first, pairs[i].second, reached[t])) {
          ++stats_.cache_insertions;
        }
        stats_.Record(ReachRule::kPrunedBfs, reached[t], per_query_seconds);
      }
    }
  }
  pass->seconds += mark - start;
}

}  // namespace tcdb

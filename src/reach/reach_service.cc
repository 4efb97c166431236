#include "reach/reach_service.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "graph/algorithms.h"

namespace tcdb {

namespace {

// The first word of a core image. Images of the previous layout, which
// followed the label index with a battery flag byte, began with
// num_input_nodes, a non-negative i32, so a tag with bit 31 set can never
// be mistaken for one of them; the low bits number the layout.
constexpr uint32_t kCoreImageTag = 0x80000000u | 2;

// Fills core->index over core->dag, with options.oreach_traffic mapped
// onto the condensation for the oreach pivot trainer.
Status BuildLabelCore(const ReachIndexOptions& options, ReachCore* core) {
  core->backend = ReachBackend::kLabels;
  std::vector<std::pair<NodeId, NodeId>> traffic;
  for (const auto& [src, dst] : options.oreach_traffic) {
    if (src < 0 || src >= core->num_input_nodes || dst < 0 ||
        dst >= core->num_input_nodes) {
      continue;
    }
    const NodeId csrc = core->node_map[src];
    const NodeId cdst = core->node_map[dst];
    if (csrc != cdst) traffic.emplace_back(csrc, cdst);
  }
  TCDB_ASSIGN_OR_RETURN(core->index,
                        ReachIndex::Build(core->dag, options, traffic));
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
  core->node_map.assign(condensation.node_map.begin(),
                        condensation.node_map.end());
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
  return ReachIndex::Verdict::kUnknown;
}

void ReachCore::DecideBatch(std::span<const std::pair<NodeId, NodeId>> pairs,
                            std::span<ReachIndex::Verdict> verdicts,
                            std::span<ReachRule> rules) const {
  TCDB_CHECK(verdicts.size() == pairs.size() && rules.size() == pairs.size());
  const int64_t n = static_cast<int64_t>(pairs.size());
  if (backend != ReachBackend::kChain) {
    for (int64_t i = 0; i < n; ++i) {
      verdicts[i] = Decide(pairs[i].first, pairs[i].second, &rules[i]);
    }
    return;
  }
  // A chain query is three rounds of dependent loads: node_map, then the
  // chain labels, then the frontier slot. Step i starts each round for a
  // later query, so by the time query i is decided its loads have been in
  // flight for several queries' time. The first steps (i < 0) only fill
  // the pipeline.
  const auto ahead = [n](int64_t i, size_t distance) {
    const int64_t j = i + static_cast<int64_t>(distance);
    return j >= 0 && j < n ? j : -1;
  };
  for (int64_t i = -static_cast<int64_t>(kNodeMapLookahead); i < n; ++i) {
    if (const int64_t j = ahead(i, kNodeMapLookahead); j >= 0) {
      __builtin_prefetch(&node_map[pairs[j].first]);
      __builtin_prefetch(&node_map[pairs[j].second]);
    }
    if (const int64_t j = ahead(i, kLabelLookahead); j >= 0) {
      chain.PrefetchLabels(node_map[pairs[j].first],
                           node_map[pairs[j].second]);
    }
    if (const int64_t j = ahead(i, kFrontierLookahead); j >= 0) {
      chain.PrefetchFrontier(node_map[pairs[j].first],
                             node_map[pairs[j].second]);
    }
    if (i >= 0) {
      verdicts[i] = Decide(pairs[i].first, pairs[i].second, &rules[i]);
    }
  }
}

void ReachCore::SerializeAppend(std::string* out) const {
  codec::PutU32(out, kCoreImageTag);
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
  }
}

Result<std::shared_ptr<const ReachCore>> ReachCore::Deserialize(
    codec::Reader* reader) {
  auto core = std::make_shared<ReachCore>();
  uint32_t tag = 0;
  NodeId dag_nodes = 0;
  uint64_t num_arcs = 0;
  uint8_t backend_byte = 0;
  if (!reader->ReadU32(&tag)) {
    return Status::Corruption("reach core image truncated");
  }
  if (tag != kCoreImageTag) {
    return Status::Corruption("reach core image version unsupported");
  }
  if (!reader->ReadI32(&core->num_input_nodes) ||
      !reader->ReadU8(&backend_byte) || !reader->ReadI32(&dag_nodes) ||
      !reader->ReadU64(&num_arcs)) {
    return Status::Corruption("reach core image truncated");
  }
  // A built core is kLabels or kChain; kAuto is an option, never a tag.
  if (backend_byte > static_cast<uint8_t>(ReachBackend::kChain)) {
    return Status::Corruption("reach core backend tag invalid");
  }
  core->backend = static_cast<ReachBackend>(backend_byte);
  if (core->num_input_nodes < 0 || dag_nodes < 0) {
    return Status::Corruption("reach core node count invalid");
  }
  // Reject oversized counts before allocating: 8 bytes per arc, then 4
  // per node-map entry and per SCC size.
  if (!reader->Holds(num_arcs, 8)) {
    return Status::Corruption("reach core arc count exceeds image");
  }
  const uint64_t node_entries = static_cast<uint64_t>(core->num_input_nodes) +
                                static_cast<uint64_t>(dag_nodes);
  if (node_entries * 4 > reader->remaining() - num_arcs * 8) {
    return Status::Corruption("reach core node count exceeds image");
  }
  if (dag_nodes > core->num_input_nodes) {
    return Status::Corruption("reach core node count invalid");
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
  std::vector<ReachIndex::Verdict> verdicts(pairs.size());
  std::vector<ReachRule> rules(pairs.size());
  // Two clock readings per pass, and every query is charged the mean. A
  // reading is an ordered instruction (rdtsc behind a fence on x86), so
  // one per query would make each query's cache misses finish before the
  // next query's could start.
  const double start = NowSeconds();
  core.DecideBatch(pairs, verdicts, rules);
  pass.seconds = NowSeconds() - start;
  if (pairs.empty()) return pass;
  pass.label_seconds_per_query =
      pass.seconds / static_cast<double>(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (verdicts[i] == ReachIndex::Verdict::kUnknown) {
      pass.residue.push_back(i);
      continue;
    }
    // Deliberately never cached: an O(1)-decided answer re-derives in
    // nanoseconds, so caching it would only evict the fallback answers
    // whose recomputation costs something.
    pass.answers[i] = {verdicts[i] == ReachIndex::Verdict::kYes, rules[i]};
    pass.stats.Count(rules[i], pass.answers[i].reachable);
  }
  // Each label-decided query is charged the mean, so a rule's time is its
  // count times the mean (one multiply per rule, where a Record per query
  // would chain a floating-point add through memory).
  for (int r = 0; r < kNumReachRules; ++r) {
    pass.stats.rule_seconds[r] =
        static_cast<double>(pass.stats.rule_decided[r]) *
        pass.label_seconds_per_query;
  }
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
  const bool relabel = pass->core != core_.get();
  for (const size_t i : pass->residue) {
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
      continue;
    }
    answers[i] = {verdict == ReachIndex::Verdict::kYes, rule};
    const double now = NowSeconds();
    stats_.Record(rule, answers[i].reachable,
                  (now - mark) + pass->label_seconds_per_query);
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

    // The group's fallback work is shared evenly across its queries, on
    // top of the label-pass share each of them already spent.
    const double end = NowSeconds();
    const double per_query_seconds =
        (end - mark) / static_cast<double>(indices.size()) +
        pass->label_seconds_per_query;
    mark = end;
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

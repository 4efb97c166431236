#ifndef TCDB_REACH_REACH_SERVICE_H_
#define TCDB_REACH_REACH_SERVICE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "reach/lru_cache.h"
#include "reach/reach_index.h"
#include "reach/reach_stats.h"
#include "util/codec.h"
#include "util/huge_page_allocator.h"
#include "util/status.h"

namespace tcdb {

struct ReachServiceOptions {
  ReachIndexOptions index;
  // Node-expansion budget of the first pruned-BFS attempt (per query, or
  // per batch source group). The residue beyond it is settled by an
  // unbounded pruned BFS, which is exact; <= 0 goes straight there.
  int64_t bfs_budget = 512;
  // LRU answer-cache entries; 0 disables the cache.
  size_t cache_capacity = 4096;
};

// The immutable half of a serving stack: the condensation of the input,
// the node map back to original ids, SCC sizes, and the O(1) label index.
// Built once and frozen; after Build() nothing mutates it, so one core is
// safely shared read-only by any number of ReachService instances on any
// number of threads (this is exactly what ReachServer does — one core,
// N shards).
struct ReachCore {
  NodeId num_input_nodes = 0;
  Digraph dag;                    // condensation (== input when acyclic)
  // Input node -> condensation node. The first load of every query, so
  // it shares the chain labels' huge pages at 10^6 nodes.
  HugeVector<NodeId> node_map;
  std::vector<int32_t> scc_size;  // condensation node -> member count
  // Which of the two label structures below is populated. kLabels fills
  // `index` (partial rules + fallback ladder); kChain fills `chain`
  // (exact frontier labels, no fallback ever runs). The other member
  // stays empty. Never kAuto: that option resolves to one of the two.
  ReachBackend backend = ReachBackend::kLabels;
  ReachIndex index;
  ChainIndex chain;

  // Why `backend` was chosen: the chain build's budget check
  // (ChainBudgetReport). chain_budget_bytes is 0 when no chain build ran
  // (a kLabels pin, or a core restored from an image, which keeps only
  // the backend tag; a restored chain core still reports its k and
  // frontier bytes). On a chain core chain_count is k and chain_bytes
  // its frontier bytes; after a refused kAuto attempt they are the chains
  // open and the frontier lower bound at chain_stop_rank, the
  // topological rank where that bound crossed the budget (else -1).
  int32_t chain_count = 0;
  int64_t chain_stop_rank = -1;
  int64_t chain_bytes = 0;
  int64_t chain_budget_bytes = 0;

  // True when the input contained a cycle (queries run on the
  // condensation).
  bool condensed() const { return dag.NumNodes() != num_input_nodes; }

  // One line naming the backend and the figures above, e.g.
  // "backend chain: k=108, frontier 784056 B of 1616480 B budget".
  std::string BackendSummary() const;

  // Reachability between condensation nodes from the labels alone:
  // reflexive, never unknown for kChain; for kLabels, index.TryDecide,
  // oreach observations included. When decided, a non-null `rule` names
  // the deciding rule.
  ReachIndex::Verdict DecideCondensed(NodeId csrc, NodeId cdst,
                                      ReachRule* rule = nullptr) const;
  // The same decision reported at stage granularity (StageOf its rule).
  ReachIndex::Verdict DecideCondensed(NodeId csrc, NodeId cdst,
                                      ReachStage* stage) const {
    ReachRule rule = ReachRule::kSelf;
    const ReachIndex::Verdict verdict = DecideCondensed(csrc, cdst, &rule);
    if (verdict != ReachIndex::Verdict::kUnknown) *stage = StageOf(rule);
    return verdict;
  }

  // Every O(1) rung of the serving ladder on input ids, in order: self
  // and same-SCC, DecideCondensed, then a direct arc (binary search over
  // the sorted CSR row). kUnknown is exactly the residue the service must
  // search; otherwise a non-null `rule` names the deciding rule.
  // Endpoints must lie in [0, num_input_nodes).
  ReachIndex::Verdict Decide(NodeId src, NodeId dst,
                             ReachRule* rule = nullptr) const;

  // Decide over a batch: verdicts[i] is Decide(pairs[i].first,
  // pairs[i].second, &rules[i]), and rules[i] names the deciding rule
  // whenever verdicts[i] is not kUnknown. Both spans must be
  // pairs.size() long; endpoints as for Decide. A kLabels core loops over
  // Decide. A kChain core runs a software pipeline: while it decides
  // query i it prefetches the node-map entries of query
  // i + kNodeMapLookahead, the chain labels of query i + kLabelLookahead
  // (ChainIndex::PrefetchLabels) and the frontier slot of query
  // i + kFrontierLookahead (ChainIndex::PrefetchFrontier), so the dependent
  // cache misses of different queries overlap instead of running one
  // query after another.
  void DecideBatch(std::span<const std::pair<NodeId, NodeId>> pairs,
                   std::span<ReachIndex::Verdict> verdicts,
                   std::span<ReachRule> rules) const;
  static constexpr size_t kNodeMapLookahead = 16;
  static constexpr size_t kLabelLookahead = 8;
  static constexpr size_t kFrontierLookahead = 4;

  // `arcs` may be cyclic and unsorted; endpoints must lie in
  // [0, num_nodes). options.backend picks the structure; kAuto (the
  // default) tries the chain labels under a budget of
  // kAutoChainBudgetFactor * LabelCoreBytes(n, m, num_supportive) for the
  // condensation's n and m, capped by options.chain's budget, and builds
  // the label core when that attempt is refused.
  static Result<std::shared_ptr<const ReachCore>> Build(
      const ArcList& arcs, NodeId num_nodes,
      const ReachIndexOptions& options = {});

  // Checkpoint image: appends a fixed-width little-endian encoding of the
  // whole core (a layout tag, condensation arcs, node map, SCC sizes, then
  // the label index or the chain index) to `out`. Deserialize() restores
  // a core whose query behavior is bit-identical to the serialized one —
  // the CSR is rebuilt from the sorted arc list, which the Digraph
  // constructor normalizes the same way every time. Corruption on a
  // truncated or inconsistent image, or one of another layout; every
  // count is checked against the bytes left before anything is sized
  // from it.
  void SerializeAppend(std::string* out) const;
  static Result<std::shared_ptr<const ReachCore>> Deserialize(
      codec::Reader* reader);
};

// The serving front end for online `reaches(src, dst)?` traffic. A
// one-shot ReachIndex build over the in-memory condensation answers most
// queries in O(1), and the undecided residue walks a short ladder —
//
//   O(1) labels -> answer cache -> bounded pruned BFS -> unbounded pruned BFS
//
// The cache only ever holds fallback answers, which the labels of the
// same core cannot decide, so consulting it after the labels changes no
// answer and no rule; it only keeps the cache off the O(1) path.
//
// The paged closure machinery (TcSession, the buffer pool, the successor-
// list store) is the paper's instrument and plays no part in serving.
//
// Cyclic inputs are handled by condensing once at build time; queries are
// then served on the condensation (two nodes of one strongly connected
// component reach each other by definition).
//
// Semantics: Reaches(u, v) is reflexive — every node reaches itself; for
// u != v it is ordinary closure membership.
//
// Threading contract: everything a query *reads* (the ReachCore) is
// shared and immutable; everything a query *mutates* (the answer cache,
// the BFS scratch, the statistics) is owned by this instance. One
// instance must therefore be driven by one thread at a time, with one
// exception: LabelPass, the first half of QueryBatch, reads only the core
// it is given and writes only its batch-local result, so any number of
// threads may run it at once. ReachServer (reach/reach_server.h) relies
// on that: it runs the label pass on the caller's thread and only the
// residue step under the shard's mutex.
class ReachService {
 public:
  struct Answer {
    Answer() = default;
    Answer(bool reachable, ReachRule rule)
        : reachable(reachable), rule(rule), stage(StageOf(rule)) {}

    bool reachable = false;
    ReachRule rule = ReachRule::kSelf;  // the rule that decided it
    ReachStage stage = ReachStage::kTrivial;  // always StageOf(rule)
  };

  // Convenience: builds a private core, then the service. `arcs` may be
  // cyclic and unsorted; endpoints must lie in [0, num_nodes).
  static Result<std::unique_ptr<ReachService>> Build(
      const ArcList& arcs, NodeId num_nodes,
      const ReachServiceOptions& options = {});

  // A shard over an existing shared core. `options.index` is ignored (the
  // core's labels are already built); the per-shard knobs (cache capacity,
  // BFS budget) apply.
  static std::unique_ptr<ReachService> Create(
      std::shared_ptr<const ReachCore> core,
      const ReachServiceOptions& options = {});

  // Answers one query: LabelPass and ServeResidue over the one pair, not
  // counted as a batch. InvalidArgument on out-of-range endpoints.
  Result<Answer> Query(NodeId src, NodeId dst);

  // Hot-swaps the shared core under this service (the dynamic rebuild
  // path). The new core must cover the same input-node universe;
  // InvalidArgument otherwise. Invalidates the answer cache (generation
  // bump — entries computed against the old core can never be served
  // again) and drops the pruned-BFS scratch (sized from the old core).
  // Owner-thread only, like every other mutating call.
  Status AdoptCore(std::shared_ptr<const ReachCore> core);

  // Answers a batch. Beyond per-query caching, the fallback residue is
  // grouped by source so one pruned BFS serves every undecided
  // destination of that source — the per-query cost of a miss
  // amortizes across the batch. Exactly LabelPass(core(), pairs)
  // followed by ServeResidue.
  Result<std::vector<Answer>> QueryBatch(
      std::span<const std::pair<NodeId, NodeId>> pairs);

  // Batch-local state handed from LabelPass to ServeResidue.
  struct BatchPass {
    // By position; the residue slots are filled by ServeResidue.
    std::vector<Answer> answers;
    // The label-decided queries, and one batch.
    ReachStats stats;
    // Positions the labels left undecided, in input order.
    std::vector<size_t> residue;
    // The label pass's time divided evenly over the batch: what every
    // query, decided or not, already spent there.
    double label_seconds_per_query = 0;
    // The core the labels were read from.
    const ReachCore* core = nullptr;
    // Time spent in LabelPass, then also in ServeResidue (by this
    // service's clock).
    double seconds = 0;
  };

  // First half of QueryBatch: core.DecideBatch over `pairs`, whose
  // endpoints the caller has validated, timed by two clock readings, with
  // each label-decided query charged the pass's mean. Reads only `core`
  // and the clock and writes only the returned pass, so it is safe on any
  // thread, concurrently with anything else this service does.
  BatchPass LabelPass(const ReachCore& core,
                      std::span<const std::pair<NodeId, NodeId>> pairs) const;

  // Second half, owner-thread only: the answer cache, then the grouped
  // pruned BFS for pass->residue against this service's current core;
  // merges the pass's stats and records the residue's. If the service
  // adopted another core since the label pass, the residue is first put
  // through that core's labels.
  void ServeResidue(std::span<const std::pair<NodeId, NodeId>> pairs,
                    BatchPass* pass);

  const ReachStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Replaces the clock used for latency attribution (seconds, monotonic).
  // Tests inject a tick clock to make recorded latencies deterministic.
  // LabelPass reads it too, so a stateful clock must only be injected
  // where one thread at a time drives this service.
  void SetClockForTesting(std::function<double()> clock) {
    clock_ = std::move(clock);
  }

  NodeId num_nodes() const { return core_->num_input_nodes; }
  const ReachIndex& index() const { return core_->index; }
  const ReachCore& core() const { return *core_; }
  // True when the input contained a cycle (queries run on the
  // condensation).
  bool condensed() const { return core_->condensed(); }

 private:
  ReachService() : cache_(0) {}

  // The fallback for one residue group: sets (*reached)[t] to whether
  // condensed `csrc` reaches targets[t], by a pruned BFS bounded by
  // options_.bfs_budget, then an unbounded one. A single target takes
  // PrunedBfs, which prunes with the labels at every node; several share
  // one PrunedMultiBfs.
  void SearchGroup(NodeId csrc, std::span<const NodeId> targets,
                   std::vector<bool>* reached);

  // Current time in seconds from clock_ (steady_clock when not injected).
  double NowSeconds() const;

  // Shared, immutable (see the threading contract above).
  std::shared_ptr<const ReachCore> core_;

  // Private, mutable: one owner thread at a time.
  ReachServiceOptions options_;
  ReachAnswerCache cache_;
  ReachIndex::SearchScratch scratch_;  // pruned-BFS buffers
  ReachStats stats_;
  std::function<double()> clock_;  // empty -> steady_clock
};

}  // namespace tcdb

#endif  // TCDB_REACH_REACH_SERVICE_H_

#ifndef TCDB_SCALE_CHAIN_INDEX_H_
#define TCDB_SCALE_CHAIN_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/codec.h"
#include "util/huge_page_allocator.h"
#include "util/status.h"

namespace tcdb {

struct ChainIndexOptions {
  // Cap on the frontier matrix, in bytes (4 per slot; the fixed 20
  // bytes/node of per-node labels are not counted). Build fails with
  // ResourceExhausted as soon as a lower bound on the finished matrix
  // crosses it, so a graph too wide for the budget stops within its first
  // few ranks instead of filling memory (the matrix is width-sensitive;
  // see below). 0 selects the default (ChainLabelBudget); negative
  // values are rejected.
  int64_t max_label_bytes = 0;
};

// The frontier budget of an n-node build: options.max_label_bytes when
// set, else the default of 1 KiB per node (a width of 256 chains), never
// less than 64 MiB. The default admits the width-64 layered family at
// 10^6 nodes (~340 B/node) and every catalog family at n = 2000, and
// refuses wide-shallow and Kronecker at 10^5 nodes.
inline int64_t ChainLabelBudget(const ChainIndexOptions& options,
                                int64_t n) {
  if (options.max_label_bytes > 0) return options.max_label_bytes;
  return std::max<int64_t>(int64_t{64} << 20, n * 1024);
}

// What a budgeted Build measured, whether or not the matrix fit (see
// ChainIndex::Build).
struct ChainBudgetReport {
  int64_t budget_bytes = 0;  // the cap the build ran against
  // Frontier bytes: exact when the build fit; otherwise the lower bound
  // on the finished matrix that crossed the budget.
  int64_t needed_bytes = 0;
  int32_t chains = 0;  // chains open when the build ended or stopped
  // Topological rank whose processing pushed the bound past the budget;
  // -1 when the build fit.
  int64_t stopped_at_rank = -1;
};

// Exact point-reachability index over a DAG via concatenable-chain
// decomposition (Kritikakis & Tollis, "Parameterized Linear Time
// Transitive Closure" / "Fast and Practical DAG Decomposition with
// Reachability Applications"). Where ReachIndex decides most pairs
// from 64 root words and searches the rest, this index is total: every
// query is answered from the labels in O(1), which is what lets the
// serving stack drop the search entirely at 10^6 nodes.
//
// One forward topological pass produces
//   - a chain decomposition: every node gets a chain id and a position;
//     consecutive positions on a chain are joined by reachability, and a
//     finished chain may be *concatenated onto* later whenever its tail
//     reaches a new node (that reuse is what keeps the chain count k near
//     the true antichain width instead of growing with depth);
//   - per-node backward frontiers: frontier(v)[c] = 1 + the maximum
//     position on chain c of a node that reaches v (0 = no such node),
//     self-inclusive. Frontiers are merged from predecessors in
//     descending topological order, and a predecessor whose frontier the
//     running merge already dominates is skipped — the merge effectively
//     walks the transitive reduction, giving the ~O(n + m*k) build.
//
// Query: u reaches v  iff  u == v or frontier(v)[chain(u)] > pos(u).
// Soundness of the skip rule: if the running frontier of v already holds
// a position >= pos(u) on u's own chain, then some chain-mate y at or
// after u reaches v through an already-merged predecessor p; u reaches y
// along the chain, so everything u contributes is already present.
//
// Space is n*k frontier slots (4 bytes each) plus fixed per-node labels —
// bytes/node ~ 4k + 20. k is reported (num_chains) and bounded below by
// the true width; families with unbounded width are stopped by the
// max_label_bytes budget, which every build runs against.
//
// The five label arrays are HugeVectors: at 10^6 nodes a query's loads
// land on ~380 MB of labels, and 2 MiB pages let the TLB cover them
// (DESIGN §15). Arrays under 2 MiB stay on ordinary heap pages.
//
// A built index is immutable: queries are safe from any number of
// threads concurrently (ReachServer shares one across its lanes).
class ChainIndex {
 public:
  // An empty index (zero nodes). Usable instances come from Build().
  ChainIndex() = default;

  // Builds the labels. `dag` must be acyclic (condense cyclic inputs
  // first); fails with InvalidArgument otherwise, and with
  // ResourceExhausted when the frontier matrix would exceed the budget
  // (options.max_label_bytes, or its default) or when any array of the
  // build cannot be allocated.
  // After each node the build checks the lower bound
  //   frontier slots so far + (nodes left) * (chains open)
  // against the budget: a row covers every chain open when its node is
  // processed and the chain count never falls, so the bound holds, and
  // after the last node it is the exact size. A non-null `report`
  // receives the budget check's figures on success and on failure.
  static Result<ChainIndex> Build(const Digraph& dag,
                                  const ChainIndexOptions& options = {},
                                  ChainBudgetReport* report = nullptr);

  // O(1), exact, reflexive.
  bool Reaches(NodeId u, NodeId v) const {
    TCDB_DCHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
    if (u == v) return true;
    const int32_t c = chain_id_[static_cast<size_t>(u)];
    // A chain born after v was processed lies later in topological order
    // wholesale, so none of its nodes can reach v.
    if (c >= row_len_[static_cast<size_t>(v)]) return false;
    return frontier_[static_cast<size_t>(row_begin_[static_cast<size_t>(v)] +
                                         c)] >
           chain_pos_[static_cast<size_t>(u)];
  }

  // Cache prefetches for a pipelined batch of Reaches(u, v) calls
  // (ReachCore::DecideBatch). A query reads four per-node labels (u's
  // chain and position, v's row start and length), then one frontier slot
  // whose address depends on them. PrefetchLabels requests the four;
  // PrefetchFrontier, issued once they have arrived, reads them and
  // requests the slot. Neither changes any answer.
  void PrefetchLabels(NodeId u, NodeId v) const {
    __builtin_prefetch(&chain_id_[static_cast<size_t>(u)]);
    __builtin_prefetch(&chain_pos_[static_cast<size_t>(u)]);
    __builtin_prefetch(&row_begin_[static_cast<size_t>(v)]);
    __builtin_prefetch(&row_len_[static_cast<size_t>(v)]);
  }
  void PrefetchFrontier(NodeId u, NodeId v) const {
    const int32_t c = chain_id_[static_cast<size_t>(u)];
    if (c >= row_len_[static_cast<size_t>(v)]) return;
    __builtin_prefetch(&frontier_[static_cast<size_t>(
        row_begin_[static_cast<size_t>(v)] + c)]);
  }

  NodeId num_nodes() const { return n_; }
  int32_t num_chains() const { return num_chains_; }
  int32_t chain_id(NodeId v) const {
    return chain_id_[static_cast<size_t>(v)];
  }
  int32_t chain_position(NodeId v) const {
    return static_cast<int32_t>(chain_pos_[static_cast<size_t>(v)]);
  }

  // Frontier merges performed / skipped by the transitive-reduction rule
  // during Build (diagnostics for the bench tables).
  int64_t merges_done() const { return merges_done_; }
  int64_t merges_skipped() const { return merges_skipped_; }

  // Bytes of the frontier matrix alone: what max_label_bytes caps.
  int64_t FrontierBytes() const {
    return static_cast<int64_t>(frontier_.size()) * 4;
  }
  // Total label footprint in bytes (frontier matrix + per-node labels).
  int64_t LabelBytes() const {
    return FrontierBytes() + static_cast<int64_t>(n_) * (4 + 4 + 8 + 4);
  }
  double BytesPerNode() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(LabelBytes()) /
                         static_cast<double>(n_);
  }

  // Fixed-width little-endian image (checkpoint body material).
  // Deserialize restores a query-identical index; Corruption on a
  // truncated or inconsistent image.
  void SerializeAppend(std::string* out) const;
  static Result<ChainIndex> Deserialize(codec::Reader* reader);

 private:
  // Build's pass, which may throw std::bad_alloc; Build turns that into
  // ResourceExhausted.
  static Result<ChainIndex> BuildPass(const Digraph& dag,
                                      ChainBudgetReport* report);

  NodeId n_ = 0;
  int32_t num_chains_ = 0;
  HugeVector<int32_t> chain_id_;    // node -> chain
  HugeVector<uint32_t> chain_pos_;  // node -> position on its chain
  // Ragged frontier matrix: node v's row lives at
  // frontier_[row_begin_[v] .. row_begin_[v] + row_len_[v]) and covers
  // the chains that existed when v was processed (rows are laid out in
  // topological processing order, so row sizes are nondecreasing along
  // that order, not along node ids).
  HugeVector<int64_t> row_begin_;
  HugeVector<int32_t> row_len_;
  HugeVector<uint32_t> frontier_;  // stored as position + 1; 0 = none
  int64_t merges_done_ = 0;
  int64_t merges_skipped_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_SCALE_CHAIN_INDEX_H_

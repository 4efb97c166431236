#ifndef TCDB_SCALE_CHAIN_INDEX_H_
#define TCDB_SCALE_CHAIN_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/codec.h"
#include "util/status.h"

namespace tcdb {

struct ChainIndexOptions {
  // Hard cap on frontier-label memory. Build fails with ResourceExhausted
  // instead of thrashing when the decomposition needs more chains than
  // the budget allows (the label matrix is width-sensitive; see below).
  // 0 = unlimited.
  int64_t max_label_bytes = 0;
};

// Exact point-reachability index over a DAG via concatenable-chain
// decomposition (Kritikakis & Tollis, "Parameterized Linear Time
// Transitive Closure" / "Fast and Practical DAG Decomposition with
// Reachability Applications"). Where ReachIndex is a bundle of partial
// O(1) rules backed by a search fallback, this index is total: every
// query is answered from the labels in O(1), which is what lets the
// serving stack drop the BFS fallback entirely at 10^6 nodes.
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
// the true width; families with unbounded width need the
// max_label_bytes guard.
//
// A built index is immutable: queries are safe from any number of
// threads concurrently (ReachServer shares one across its shards).
class ChainIndex {
 public:
  // An empty index (zero nodes). Usable instances come from Build().
  ChainIndex() = default;

  // Builds the labels. `dag` must be acyclic (condense cyclic inputs
  // first); fails with InvalidArgument otherwise, ResourceExhausted when
  // the label matrix would exceed options.max_label_bytes.
  static Result<ChainIndex> Build(const Digraph& dag,
                                  const ChainIndexOptions& options = {});

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

  // Total label footprint in bytes (frontier matrix + per-node labels).
  int64_t LabelBytes() const {
    return static_cast<int64_t>(frontier_.size()) * 4 +
           static_cast<int64_t>(n_) * (4 + 4 + 8 + 4);
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
  NodeId n_ = 0;
  int32_t num_chains_ = 0;
  std::vector<int32_t> chain_id_;    // node -> chain
  std::vector<uint32_t> chain_pos_;  // node -> position on its chain
  // Ragged frontier matrix: node v's row lives at
  // frontier_[row_begin_[v] .. row_begin_[v] + row_len_[v]) and covers
  // the chains that existed when v was processed (rows are laid out in
  // topological processing order, so row sizes are nondecreasing along
  // that order, not along node ids).
  std::vector<int64_t> row_begin_;
  std::vector<int32_t> row_len_;
  std::vector<uint32_t> frontier_;  // stored as position + 1; 0 = none
  int64_t merges_done_ = 0;
  int64_t merges_skipped_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_SCALE_CHAIN_INDEX_H_

#include "scale/chain_index.h"

#include <algorithm>
#include <new>
#include <string>

#include "scale/topo_order.h"
#include "util/check.h"

namespace tcdb {

Result<ChainIndex> ChainIndex::Build(const Digraph& dag,
                                     const ChainIndexOptions& options,
                                     ChainBudgetReport* report) {
  if (options.max_label_bytes < 0) {
    return Status::InvalidArgument("negative chain index label budget");
  }
  const NodeId n = dag.NumNodes();
  ChainBudgetReport unused_report;
  if (report == nullptr) report = &unused_report;
  *report = ChainBudgetReport();
  report->budget_bytes = ChainLabelBudget(options, n);
  ChainIndex index;
  index.n_ = n;
  if (n == 0) return index;

  std::vector<int32_t> in_degree(static_cast<size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId w : dag.Successors(v)) ++in_degree[w];
  }

  // Reverse CSR (predecessor lists).
  std::vector<int64_t> pred_begin(static_cast<size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    pred_begin[v + 1] = pred_begin[v] + in_degree[v];
  }
  std::vector<NodeId> preds(static_cast<size_t>(pred_begin.back()));
  {
    std::vector<int64_t> cursor(pred_begin.begin(), pred_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : dag.Successors(v)) {
        preds[static_cast<size_t>(cursor[w]++)] = v;
      }
    }
  }

  // Kahn FIFO topological pass (scale/topo_order.h): O(n + m).
  // TopologicalSort's min-heap order costs an extra log factor that is
  // real money at 10^6 nodes; FIFO over ascending seed ids is just as
  // deterministic.
  TCDB_ASSIGN_OR_RETURN(const std::vector<NodeId> order, FifoTopoOrder(dag));
  std::vector<int32_t> topo_pos(static_cast<size_t>(n), -1);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    topo_pos[order[rank]] = static_cast<int32_t>(rank);
  }

  index.chain_id_.assign(static_cast<size_t>(n), 0);
  index.chain_pos_.assign(static_cast<size_t>(n), 0);
  index.row_begin_.assign(static_cast<size_t>(n), 0);
  index.row_len_.assign(static_cast<size_t>(n), 0);
  std::vector<uint32_t>& frontier = index.frontier_;
  std::vector<uint32_t> chain_len;   // current length per chain
  std::vector<NodeId> merge_order;   // per-node predecessor buffer

  const auto refuse = [&](const char* why, int64_t rank,
                          int64_t needed_bytes) {
    report->needed_bytes = needed_bytes;
    report->chains = index.num_chains_;
    report->stopped_at_rank = rank;
    return Status::ResourceExhausted(
        std::string("chain index ") + why + ": needs at least " +
        std::to_string(needed_bytes) + " bytes, budget " +
        std::to_string(report->budget_bytes) + ", with " +
        std::to_string(index.num_chains_) + " chains at topological rank " +
        std::to_string(rank) + " of " + std::to_string(n));
  };

  for (size_t rank = 0; rank < order.size(); ++rank) {
    const NodeId v = order[rank];
    const int32_t k = index.num_chains_;
    // Provision k slots for the merge plus one spare in case v opens a
    // new chain; the spare is returned below when it does not.
    const int64_t base = static_cast<int64_t>(frontier.size());
    try {
      frontier.resize(static_cast<size_t>(base) + k + 1, 0);
    } catch (const std::bad_alloc&) {
      return refuse("frontier allocation failed", static_cast<int64_t>(rank),
                    (base + k + 1) * 4);
    }
    index.row_begin_[v] = base;
    uint32_t* const row_v = frontier.data() + base;

    // Merge predecessor frontiers latest-topological-first: a
    // predecessor the running merge already covers (some chain-mate at
    // or after it is already known to reach v) contributes nothing new
    // and is skipped — the merge walks the transitive reduction, not
    // the full in-star.
    merge_order.assign(preds.begin() + pred_begin[v],
                       preds.begin() + pred_begin[v + 1]);
    std::sort(merge_order.begin(), merge_order.end(),
              [&topo_pos](NodeId a, NodeId b) {
                return topo_pos[a] > topo_pos[b];
              });
    for (const NodeId u : merge_order) {
      if (row_v[index.chain_id_[u]] > index.chain_pos_[u]) {
        ++index.merges_skipped_;
        continue;
      }
      const uint32_t* const row_u =
          frontier.data() + index.row_begin_[u];
      const int32_t len_u = index.row_len_[u];
      for (int32_t c = 0; c < len_u; ++c) {
        row_v[c] = std::max(row_v[c], row_u[c]);
      }
      ++index.merges_done_;
    }

    // Concatenable assignment: append v to the first chain whose current
    // tail reaches v (frontier value == chain length means the node at
    // the last position does), reviving "stuck" chains whenever
    // possible; only when no tail reaches v does a new chain open. This
    // reuse is what keeps the chain count near the true width.
    int32_t chosen = -1;
    for (int32_t c = 0; c < k; ++c) {
      if (row_v[c] == chain_len[c]) {
        chosen = c;
        break;
      }
    }
    if (chosen >= 0) {
      index.chain_id_[v] = chosen;
      index.chain_pos_[v] = chain_len[chosen];
      row_v[chosen] = ++chain_len[chosen];  // self-inclusion
      index.row_len_[v] = k;
      frontier.resize(static_cast<size_t>(base) + k);
    } else {
      index.chain_id_[v] = k;
      index.chain_pos_[v] = 0;
      chain_len.push_back(1);
      row_v[k] = 1;
      index.row_len_[v] = k + 1;
      index.num_chains_ = k + 1;
    }

    // Every node still to come gets a row of at least the chains open
    // now: a lower bound on the finished matrix, exact after the last
    // node.
    const int64_t bound_bytes =
        (static_cast<int64_t>(frontier.size()) +
         (static_cast<int64_t>(n) - static_cast<int64_t>(rank) - 1) *
             index.num_chains_) *
        4;
    if (bound_bytes > report->budget_bytes) {
      return refuse("label budget exceeded", static_cast<int64_t>(rank),
                    bound_bytes);
    }
  }
  report->needed_bytes = index.FrontierBytes();
  report->chains = index.num_chains_;
  return index;
}

void ChainIndex::SerializeAppend(std::string* out) const {
  codec::PutI32(out, n_);
  codec::PutI32(out, num_chains_);
  codec::PutU64(out, frontier_.size());
  for (const int32_t id : chain_id_) codec::PutI32(out, id);
  for (const uint32_t pos : chain_pos_) codec::PutU32(out, pos);
  for (const int64_t begin : row_begin_) codec::PutI64(out, begin);
  for (const int32_t len : row_len_) codec::PutI32(out, len);
  for (const uint32_t value : frontier_) codec::PutU32(out, value);
  // The merge counters are build diagnostics, deliberately not part of
  // the image: a restored index answers identically without them.
}

Result<ChainIndex> ChainIndex::Deserialize(codec::Reader* reader) {
  ChainIndex index;
  uint64_t frontier_size = 0;
  if (!reader->ReadI32(&index.n_) || !reader->ReadI32(&index.num_chains_) ||
      !reader->ReadU64(&frontier_size) || index.n_ < 0 ||
      index.num_chains_ < 0 || index.num_chains_ > index.n_) {
    return Status::Corruption("chain index image truncated");
  }
  const uint64_t n = static_cast<uint64_t>(index.n_);
  // Reject oversized counts before allocating: the image holds 20 bytes
  // of per-node labels plus 4 per frontier slot.
  if (!reader->Holds(frontier_size, 4) ||
      n * 20 > reader->remaining() - frontier_size * 4) {
    return Status::Corruption("chain index counts exceed image");
  }
  index.chain_id_.resize(n);
  for (int32_t& id : index.chain_id_) {
    if (!reader->ReadI32(&id) || id < 0 || id >= index.num_chains_) {
      return Status::Corruption("chain index chain ids invalid");
    }
  }
  index.chain_pos_.resize(n);
  for (uint32_t& pos : index.chain_pos_) {
    if (!reader->ReadU32(&pos) || pos >= n) {
      return Status::Corruption("chain index positions invalid");
    }
  }
  index.row_begin_.resize(n);
  for (int64_t& begin : index.row_begin_) {
    if (!reader->ReadI64(&begin) || begin < 0 ||
        begin > static_cast<int64_t>(frontier_size)) {
      return Status::Corruption("chain index row offsets invalid");
    }
  }
  index.row_len_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    int32_t& len = index.row_len_[v];
    if (!reader->ReadI32(&len) || len < 0 || len > index.num_chains_ ||
        index.row_begin_[v] + len > static_cast<int64_t>(frontier_size)) {
      return Status::Corruption("chain index row lengths invalid");
    }
  }
  index.frontier_.resize(frontier_size);
  for (uint32_t& value : index.frontier_) {
    if (!reader->ReadU32(&value) || value > n) {
      return Status::Corruption("chain index frontier invalid");
    }
  }
  return index;
}

}  // namespace tcdb

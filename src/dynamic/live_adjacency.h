#ifndef TCDB_DYNAMIC_LIVE_ADJACENCY_H_
#define TCDB_DYNAMIC_LIVE_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/check.h"

namespace tcdb {

// The live graph of a MutationLog, held in memory in both orientations.
// The log applies every accepted mutation here; the incremental pivot
// trees repair against it (out-rows drive forward tree expansion and
// backward anchor scans, in-rows the reverse) and the live BFS walks its
// out-rows. Rows are unsorted and duplicate-free (the MutationLog
// validates every mutation before it reaches here). Owner-thread only.
class LiveAdjacency {
 public:
  explicit LiveAdjacency(NodeId num_nodes)
      : out_(static_cast<size_t>(num_nodes)),
        in_(static_cast<size_t>(num_nodes)) {}

  void Insert(NodeId src, NodeId dst) {
    out_[static_cast<size_t>(src)].push_back(dst);
    in_[static_cast<size_t>(dst)].push_back(src);
    ++num_arcs_;
  }

  // The arc must be present (enforced upstream by the log).
  void Delete(NodeId src, NodeId dst) {
    EraseOne(&out_[static_cast<size_t>(src)], dst);
    EraseOne(&in_[static_cast<size_t>(dst)], src);
    --num_arcs_;
  }

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  int64_t num_arcs() const { return num_arcs_; }

  const std::vector<NodeId>& Out(NodeId v) const {
    return out_[static_cast<size_t>(v)];
  }
  const std::vector<NodeId>& In(NodeId v) const {
    return in_[static_cast<size_t>(v)];
  }

 private:
  static void EraseOne(std::vector<NodeId>* row, NodeId v) {
    for (size_t i = 0; i < row->size(); ++i) {
      if ((*row)[i] == v) {
        (*row)[i] = row->back();
        row->pop_back();
        return;
      }
    }
    TCDB_CHECK(false) << "arc endpoint " << v << " missing from live row";
  }

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  int64_t num_arcs_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_DYNAMIC_LIVE_ADJACENCY_H_

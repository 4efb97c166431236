#ifndef TCDB_CORE_PATHS_H_
#define TCDB_CORE_PATHS_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/run_context.h"

namespace tcdb {

// Path reconstruction from SPN's successor spanning trees. The paper notes
// that "in addition to determining reachability between two nodes, the
// successor tree algorithms also establish a path between the two nodes.
// This additional information, if needed, may justify the higher I/O cost"
// (Section 6.2) — this is that capability, built on runs executed with
// ExecOptions::capture_trees.

// Returns a witness path root -> ... -> `target` from a successor spanning
// tree in the EncodeTree format (every tree link is an input arc).
// NotFound if `target` is not in the tree (i.e. not a successor of the
// root). The path includes both endpoints; its length is at least 2.
//
// Reads the encoding directly in one backward pass, O(encoding size): in
// BFS order a node's entry as a child precedes its own parent marker, and
// the nearest marker before an entry names that entry's parent.
Result<std::vector<NodeId>> PathFromSpanningTree(
    std::span<const int32_t> encoded, NodeId target);

// Convenience index over a run's captured trees.
class PathIndex {
 public:
  // Copies the encoded trees out of `result`.
  explicit PathIndex(const RunResult& result);

  // Witness path from `from` to `to`. NotFound when `from` has no captured
  // tree or `to` is unreachable from it.
  Result<std::vector<NodeId>> FindPath(NodeId from, NodeId to) const;

  bool HasTree(NodeId node) const { return trees_.contains(node); }
  size_t size() const { return trees_.size(); }

 private:
  std::unordered_map<NodeId, std::vector<int32_t>> trees_;
};

}  // namespace tcdb

#endif  // TCDB_CORE_PATHS_H_

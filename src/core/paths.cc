#include "core/paths.h"

#include <algorithm>

namespace tcdb {
namespace {

// Whether `entry` is the (positive, +1-biased) child entry of `node`.
bool IsChildEntry(int32_t entry, NodeId node) {
  return entry > 0 && entry - 1 == node;
}

}  // namespace

Result<std::vector<NodeId>> PathFromSpanningTree(
    std::span<const int32_t> encoded, NodeId target) {
  // Entry 0 is the root. A node is not its own successor on a DAG, so the
  // target must be a later (child) entry.
  size_t i = 1;
  while (i < encoded.size() && !IsChildEntry(encoded[i], target)) ++i;
  if (i >= encoded.size()) {
    return Status::NotFound("target is not a successor of the tree root");
  }
  std::vector<NodeId> path = {target};
  for (;;) {
    // `i` is the child entry of path.back(); step back to its parent.
    while (i > 0 && encoded[i] > 0) --i;
    if (encoded[i] >= 0 || encoded[i] == INT32_MIN) break;
    const NodeId parent = -encoded[i] - 1;
    path.push_back(parent);
    if (i == 0) {  // The root's marker.
      std::reverse(path.begin(), path.end());
      return path;
    }
    while (i > 0 && !IsChildEntry(encoded[i], parent)) --i;
    if (i == 0) break;
  }
  return Status::InvalidArgument("malformed tree encoding");
}

PathIndex::PathIndex(const RunResult& result) {
  for (const auto& [node, tree] : result.spanning_trees) {
    trees_.emplace(node, tree);
  }
}

Result<std::vector<NodeId>> PathIndex::FindPath(NodeId from, NodeId to) const {
  auto it = trees_.find(from);
  if (it == trees_.end()) {
    return Status::NotFound("no spanning tree captured for this node");
  }
  return PathFromSpanningTree(it->second, to);
}

}  // namespace tcdb

#include "scale/topo_order.h"

namespace tcdb {

namespace {

std::vector<int32_t> CountInDegrees(const Digraph& dag) {
  std::vector<int32_t> in_degree(static_cast<size_t>(dag.NumNodes()), 0);
  for (NodeId v = 0; v < dag.NumNodes(); ++v) {
    for (const NodeId w : dag.Successors(v)) ++in_degree[w];
  }
  return in_degree;
}

Status CyclicError() {
  return Status::InvalidArgument(
      "topological order requires an acyclic graph; condense cyclic "
      "inputs first");
}

}  // namespace

Result<std::vector<NodeId>> FifoTopoOrder(const Digraph& dag) {
  const NodeId n = dag.NumNodes();
  std::vector<int32_t> in_degree = CountInDegrees(dag);
  std::vector<NodeId> order;
  order.reserve(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (in_degree[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (const NodeId w : dag.Successors(v)) {
      if (--in_degree[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != static_cast<size_t>(n)) return CyclicError();
  return order;
}

}  // namespace tcdb

#ifndef TCDB_SCALE_TOPO_ORDER_H_
#define TCDB_SCALE_TOPO_ORDER_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace tcdb {

// FIFO Kahn order: ready nodes are emitted in queue order, seeded
// ascending by node id. O(n + m), deterministic, no log factor — the
// order ChainIndex builds on. InvalidArgument on a cyclic graph.
Result<std::vector<NodeId>> FifoTopoOrder(const Digraph& dag);

}  // namespace tcdb

#endif  // TCDB_SCALE_TOPO_ORDER_H_

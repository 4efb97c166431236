#ifndef TCDB_SCALE_TOPO_ORDER_H_
#define TCDB_SCALE_TOPO_ORDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace tcdb {

// Kahn topological passes shared by the scale substrate (ChainIndex) and
// the label index's oreach observations (reach/reach_index.h). Both need
// linear-time orders over million-node DAGs; the observations
// additionally need *distinct* orders, because every topological order is
// an independent negative witness (u ~> v forces pos[u] < pos[v] in all
// of them) and two orders that disagree about a pair kill it twice as
// often as one.

// FIFO Kahn order: ready nodes are emitted in queue order, seeded
// ascending by node id. O(n + m), deterministic, no log factor — the
// order ChainIndex builds on. InvalidArgument on a cyclic graph.
Result<std::vector<NodeId>> FifoTopoOrder(const Digraph& dag);

// Rank-driven Kahn order: among ready nodes the one with the smallest
// rank[v] (ties broken by node id) is emitted first, via a binary heap —
// O((n + m) log n). Feeding pseudo-random ranks yields independent-looking
// topological orders from one graph, which is exactly what the
// observations' sandwich bounds want. `rank` must have one entry per node.
// InvalidArgument on a cyclic graph or a mis-sized rank vector.
Result<std::vector<NodeId>> RankedTopoOrder(const Digraph& dag,
                                            std::span<const uint64_t> rank);

}  // namespace tcdb

#endif  // TCDB_SCALE_TOPO_ORDER_H_

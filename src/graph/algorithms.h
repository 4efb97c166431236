#ifndef TCDB_GRAPH_ALGORITHMS_H_
#define TCDB_GRAPH_ALGORITHMS_H_

#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace tcdb {

// Returns true if `graph` contains no directed cycle.
bool IsAcyclic(const Digraph& graph);

// Topological order of a DAG (every arc goes from an earlier to a later
// position). Deterministic: among ready nodes the smallest id is emitted
// first. Fails with InvalidArgument on a cyclic graph.
Result<std::vector<NodeId>> TopologicalSort(const Digraph& graph);

// Inverse permutation of a topological order: position[v] = index of v.
std::vector<int32_t> OrderPositions(const std::vector<NodeId>& order);

// Nodes reachable from `sources` (including the sources themselves),
// in ascending id order.
std::vector<NodeId> ReachableFrom(const Digraph& graph,
                                  const std::vector<NodeId>& sources);

// Strongly connected components (Tarjan). Returns the component id of every
// node. Ids are dense in [0, num_components) and reverse-topologically
// numbered: if the condensation has an arc C1 -> C2 then id(C1) > id(C2).
struct SccResult {
  std::vector<int32_t> component;  // node -> component id
  int32_t num_components = 0;
};
SccResult StronglyConnectedComponents(const Digraph& graph);

// Condensation graph: one node per SCC, with an arc between distinct
// components whenever the input has an arc between their members
// (deduplicated). The result is always acyclic. `node_map` gives each input
// node's condensation node. This implements the paper's preprocessing
// justification for studying acyclic graphs: a cyclic input is condensed
// cheaply relative to the closure cost (Section 1).
//
// Condensation ids are the SCC ids, so they are reverse-topological: every
// arc of `dag` runs from a higher id to a lower one, and descending ids are
// a topological order. ReachIndex relies on this (u < v proves that u does
// not reach v); CondensationTest.IdsAreReverseTopological pins it.
struct Condensation {
  Digraph dag;
  std::vector<NodeId> node_map;  // input node -> condensation node
};
Condensation Condense(const Digraph& graph);

// In-memory reference transitive closure (per-source BFS). Oracle for
// correctness tests; not I/O accounted.
// successors[v] = sorted successors of v (excluding v unless on a cycle).
std::vector<std::vector<NodeId>> ReferenceClosure(const Digraph& graph);

// Reference partial closure restricted to `sources`.
std::vector<std::vector<NodeId>> ReferencePartialClosure(
    const Digraph& graph, const std::vector<NodeId>& sources);

}  // namespace tcdb

#endif  // TCDB_GRAPH_ALGORITHMS_H_

#ifndef TCDB_SUCC_TREE_CODEC_H_
#define TCDB_SUCC_TREE_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace tcdb {

// In-memory rooted tree over node ids, used for the successor spanning
// trees of SPN and the special-node predecessor trees of JKB/JKB2.
// Nodes are unique within a tree. Child order is append order; a node's
// index is always greater than its parent's.
//
// Node lookup is a dense node-id -> index array, grown on demand to the
// largest id ever added, so a tree over the node universe [0, n) holds at
// most n index entries. The algorithms keep one tree per role for a whole
// run and Reset() it per node: Reset touches only the entries of the
// tree's own nodes, so a union costs O(tree size) and allocates nothing
// once the storage has grown.
class FlatTree {
 public:
  explicit FlatTree(NodeId root = 0);

  // Makes this the one-node tree `root`, keeping all storage. O(size()).
  void Reset(NodeId root);

  NodeId root() const { return nodes_[0]; }
  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }

  bool Contains(NodeId node) const { return IndexOf(node) != -1; }
  // Index of `node` within the tree, or -1.
  int32_t IndexOf(NodeId node) const {
    return static_cast<size_t>(node) < index_.size() ? index_[node] : -1;
  }

  NodeId NodeAt(int32_t index) const { return nodes_[index]; }
  int32_t ParentOf(int32_t index) const { return links_[index].parent; }
  // Children in insertion order: FirstChild, then NextSibling until -1.
  int32_t FirstChild(int32_t index) const {
    return links_[index].first_child;
  }
  int32_t NextSibling(int32_t index) const {
    return links_[index].next_sibling;
  }
  // O(number of children).
  int32_t NumChildren(int32_t index) const;

  // Adds `node` (non-negative, absent) as the last child of
  // `parent_index`. Returns the new node's index. Inline: the tree
  // kernels call it once per tree node they build.
  int32_t AddChild(int32_t parent_index, NodeId node) {
    TCDB_CHECK(parent_index >= 0 && parent_index < size());
    TCDB_CHECK(node >= 0 && !Contains(node)) << "node absent or negative";
    const int32_t index = Append(node, parent_index);
    Links& parent = links_[parent_index];
    if (parent.first_child == -1) {
      parent.first_child = index;
    } else {
      links_[parent.last_child].next_sibling = index;
    }
    parent.last_child = index;
    return index;
  }

  // All node ids in index (insertion) order.
  const std::vector<NodeId>& nodes() const { return nodes_; }

 private:
  struct Links {
    int32_t parent;
    int32_t first_child;
    int32_t last_child;
    int32_t next_sibling;
  };

  // Appends `node` with no links and indexes it.
  int32_t Append(NodeId node, int32_t parent_index) {
    const int32_t index = size();
    if (static_cast<size_t>(node) >= index_.size()) {
      index_.resize(static_cast<size_t>(node) + 1, -1);
    }
    index_[node] = index;
    nodes_.push_back(node);
    links_.push_back(Links{parent_index, -1, -1, -1});
    return index;
  }

  std::vector<NodeId> nodes_;
  std::vector<Links> links_;
  std::vector<int32_t> index_;  // node id -> index in nodes_, or -1
};

// Serializes a tree into the paper's on-disk format: "each parent (internal
// node) [is stored] once, followed by a list of its children. Parent nodes
// are distinguished by negating their values" (Section 4.1). Values are
// biased by +1 so node 0 survives negation. Internal nodes are emitted in
// BFS order, which guarantees each parent already appeared as a child of an
// earlier entry (or is the root).
//
// A tree consisting only of its root encodes as the single positive entry
// for the root. EncodeTreeInto overwrites `*out`, reusing its storage and
// that of `queue` (scratch).
void EncodeTreeInto(const FlatTree& tree, std::vector<int32_t>* queue,
                    std::vector<int32_t>* out);
std::vector<int32_t> EncodeTree(const FlatTree& tree);

// Inverse of EncodeTree over the node universe [0, num_nodes). Accepts
// exactly EncodeTree's output, so a decoded tree re-encodes to the same
// entries. Fails with InvalidArgument on anything else: an empty
// encoding, a zero or INT32_MIN entry, a node id outside the universe, a
// parent marker for a node not yet introduced, out of BFS order or with no
// children, a duplicate node, or trailing entries after a single-node
// encoding. No allocation is sized by an entry's value. DecodeTreeInto
// rebuilds `*out` in place, reusing its storage; on failure `*out` is some
// valid partial tree.
Status DecodeTreeInto(std::span<const int32_t> encoded, NodeId num_nodes,
                      FlatTree* out);
Result<FlatTree> DecodeTree(std::span<const int32_t> encoded,
                            NodeId num_nodes);

}  // namespace tcdb

#endif  // TCDB_SUCC_TREE_CODEC_H_

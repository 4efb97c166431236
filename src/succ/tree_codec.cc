#include "succ/tree_codec.h"

namespace tcdb {

FlatTree::FlatTree(NodeId root) { Reset(root); }

void FlatTree::Reset(NodeId root) {
  for (const NodeId node : nodes_) index_[node] = -1;
  nodes_.clear();
  links_.clear();
  TCDB_CHECK_GE(root, 0);
  Append(root, -1);
}

int32_t FlatTree::NumChildren(int32_t index) const {
  int32_t count = 0;
  for (int32_t c = FirstChild(index); c != -1; c = NextSibling(c)) ++count;
  return count;
}

void EncodeTreeInto(const FlatTree& tree, std::vector<int32_t>* queue,
                    std::vector<int32_t>* out) {
  out->clear();
  if (tree.size() == 1) {
    out->push_back(tree.root() + 1);
    return;
  }
  // BFS over internal nodes: the index order need not be BFS after
  // arbitrary construction.
  queue->assign(1, 0);
  for (size_t qi = 0; qi < queue->size(); ++qi) {
    const int32_t p = (*queue)[qi];
    int32_t c = tree.FirstChild(p);
    if (c == -1) continue;
    out->push_back(-(tree.NodeAt(p) + 1));
    for (; c != -1; c = tree.NextSibling(c)) {
      out->push_back(tree.NodeAt(c) + 1);
      queue->push_back(c);
    }
  }
}

std::vector<int32_t> EncodeTree(const FlatTree& tree) {
  std::vector<int32_t> queue;
  std::vector<int32_t> out;
  EncodeTreeInto(tree, &queue, &out);
  return out;
}

namespace {

// The node id an entry names, or -1 when the entry is malformed: zero,
// INT32_MIN (whose negation overflows), or outside [0, num_nodes).
NodeId EntryNode(int32_t value, NodeId num_nodes) {
  if (value == 0 || value == INT32_MIN) return -1;
  const NodeId node = (value > 0 ? value : -value) - 1;
  return node < num_nodes ? node : -1;
}

}  // namespace

Status DecodeTreeInto(std::span<const int32_t> encoded, NodeId num_nodes,
                      FlatTree* out) {
  if (encoded.empty()) {
    return Status::InvalidArgument("empty tree encoding");
  }
  const NodeId root = EntryNode(encoded[0], num_nodes);
  if (root == -1) return Status::InvalidArgument("malformed root entry");
  if (encoded[0] > 0 && encoded.size() != 1) {
    return Status::InvalidArgument(
        "single-node encoding with trailing entries");
  }
  out->Reset(root);
  // Only EncodeTree's own output is accepted, so every tree that decodes
  // re-encodes to the same bytes. Decoding assigns indices in queue
  // order, so canonical (BFS) order means each parent marker names a node
  // with a larger index than the previous marker, and each marker is
  // followed by at least one child.
  int32_t current_parent = 0;
  int32_t family_size = 0;
  for (size_t i = 1; i < encoded.size(); ++i) {
    const NodeId node = EntryNode(encoded[i], num_nodes);
    if (node == -1) return Status::InvalidArgument("malformed tree entry");
    const int32_t index = out->IndexOf(node);
    if (encoded[i] < 0) {
      if (index == -1) {
        return Status::InvalidArgument("parent marker for unknown node");
      }
      if (index <= current_parent || family_size == 0) {
        return Status::InvalidArgument(
            "parent marker out of BFS order or after an empty family");
      }
      current_parent = index;
      family_size = 0;
    } else {
      if (index != -1) {
        return Status::InvalidArgument("duplicate node in encoding");
      }
      out->AddChild(current_parent, node);
      ++family_size;
    }
  }
  if (encoded[0] < 0 && family_size == 0) {
    return Status::InvalidArgument("parent marker without children");
  }
  return Status::Ok();
}

Result<FlatTree> DecodeTree(std::span<const int32_t> encoded,
                            NodeId num_nodes) {
  FlatTree tree;
  TCDB_RETURN_IF_ERROR(DecodeTreeInto(encoded, num_nodes, &tree));
  return tree;
}

}  // namespace tcdb

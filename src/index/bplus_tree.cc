#include "index/bplus_tree.h"

#include <algorithm>

#include "storage/page_guard.h"
#include "util/lower_bound.h"

namespace tcdb {
namespace {

// On-page layouts. Both node kinds share an 8-byte header followed by an
// array of 8-byte entries, giving a fanout of 255.
constexpr uint16_t kLeafType = 1;
constexpr uint16_t kInternalType = 2;

struct NodeHeader {
  uint16_t type;
  uint16_t count;
  // Leaves: page number of the next leaf (kInvalidPageNumber at the end).
  // Internal nodes: page number of the leftmost child.
  uint32_t link;
};
static_assert(sizeof(NodeHeader) == 8);

struct Entry {
  uint32_t key;
  // Leaves: the mapped value. Internal nodes: child holding keys >= key.
  uint32_t child_or_value;
};
static_assert(sizeof(Entry) == 8);

constexpr size_t kEntryCapacity = (kPageSize - sizeof(NodeHeader)) / sizeof(Entry);

NodeHeader* Header(Page* page) { return page->As<NodeHeader>(0); }
const NodeHeader* Header(const Page* page) { return page->As<NodeHeader>(0); }
Entry* Entries(Page* page) { return page->As<Entry>(sizeof(NodeHeader)); }
const Entry* Entries(const Page* page) {
  return page->As<Entry>(sizeof(NodeHeader));
}

// Index of the child to descend into for `key`: the last separator <= key
// selects its right child; otherwise the leftmost child.
// Returns the child page number.
PageNumber ChildFor(const Page* page, uint32_t key) {
  const NodeHeader* header = Header(page);
  const Entry* entries = Entries(page);
  // The first separator > key; the one before it, if any, is the last
  // separator <= key.
  const Entry* upper = BranchlessLowerBound(
      entries, header->count, [key](const Entry& e) { return e.key <= key; });
  return upper == entries ? header->link : (upper - 1)->child_or_value;
}

}  // namespace

BPlusTree::BPlusTree(BufferManager* buffers, FileId file)
    : buffers_(buffers), file_(file) {}

Status BPlusTree::BulkLoad(
    const std::vector<std::pair<uint32_t, uint32_t>>& entries) {
  if (height_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].first >= entries[i].first) {
      return Status::InvalidArgument(
          "BulkLoad input must have strictly increasing keys");
    }
  }
  if (entries.empty()) return Status::Ok();

  // Build the leaf level.
  std::vector<std::pair<uint32_t, PageNumber>> level;  // (first key, page)
  PageNumber prev_leaf = kInvalidPageNumber;
  size_t pos = 0;
  while (pos < entries.size()) {
    const size_t take = std::min(kEntryCapacity, entries.size() - pos);
    TCDB_ASSIGN_OR_RETURN(
        NewPageGuard leaf,
        NewPageGuard::Alloc(buffers_, file_, "BPlusTree::BulkLoad leaf"));
    NodeHeader* header = Header(leaf.get());
    header->type = kLeafType;
    header->count = static_cast<uint16_t>(take);
    header->link = kInvalidPageNumber;
    Entry* out = Entries(leaf.get());
    for (size_t i = 0; i < take; ++i) {
      out[i].key = entries[pos + i].first;
      out[i].child_or_value = entries[pos + i].second;
    }
    if (prev_leaf != kInvalidPageNumber) {
      TCDB_ASSIGN_OR_RETURN(
          PageGuard prev,
          PageGuard::Fetch(buffers_, {file_, prev_leaf},
                           "BPlusTree::BulkLoad link"));
      Header(prev.get())->link = leaf.page_no();
      prev.MarkDirty();
    }
    level.emplace_back(entries[pos].first, leaf.page_no());
    prev_leaf = leaf.page_no();
    pos += take;
  }
  height_ = 1;

  // Build internal levels until a single root remains.
  while (level.size() > 1) {
    std::vector<std::pair<uint32_t, PageNumber>> next_level;
    size_t i = 0;
    while (i < level.size()) {
      // One leftmost child plus up to kEntryCapacity keyed children.
      const size_t take = std::min(kEntryCapacity + 1, level.size() - i);
      TCDB_ASSIGN_OR_RETURN(
          NewPageGuard node,
          NewPageGuard::Alloc(buffers_, file_,
                              "BPlusTree::BulkLoad internal"));
      NodeHeader* header = Header(node.get());
      header->type = kInternalType;
      header->count = static_cast<uint16_t>(take - 1);
      header->link = level[i].second;
      Entry* out = Entries(node.get());
      for (size_t j = 1; j < take; ++j) {
        out[j - 1].key = level[i + j].first;
        out[j - 1].child_or_value = level[i + j].second;
      }
      next_level.emplace_back(level[i].first, node.page_no());
      i += take;
    }
    level = std::move(next_level);
    ++height_;
  }
  root_ = level[0].second;
  size_ = static_cast<int64_t>(entries.size());
  return Status::Ok();
}

Result<PageNumber> BPlusTree::FindLeaf(uint32_t key) const {
  TCDB_CHECK_GT(height_, 0u) << "FindLeaf on an empty tree";
  PageNumber page_no = root_;
  for (uint32_t depth = 1; depth < height_; ++depth) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {file_, page_no},
                                           "BPlusTree::FindLeaf"));
    TCDB_CHECK_EQ(Header(page.get())->type, kInternalType);
    page_no = ChildFor(page.get(), key);
  }
  return page_no;
}

Result<std::optional<uint32_t>> BPlusTree::Find(uint32_t key) const {
  using Out = std::optional<uint32_t>;
  if (height_ == 0) return Out(std::nullopt);
  TCDB_ASSIGN_OR_RETURN(const PageNumber leaf_no, FindLeaf(key));
  TCDB_ASSIGN_OR_RETURN(PageGuard page,
                        PageGuard::Fetch(buffers_, {file_, leaf_no},
                                         "BPlusTree::Search"));
  TCDB_CHECK_EQ(Header(page.get())->type, kLeafType);
  const Entry* entries = Entries(page.get());
  const Entry* end = entries + Header(page.get())->count;
  const Entry* it = BranchlessLowerBound(
      entries, static_cast<size_t>(end - entries),
      [key](const Entry& e) { return e.key < key; });
  if (it != end && it->key == key) return Out(it->child_or_value);
  return Out(std::nullopt);
}

Result<uint32_t> BPlusTree::Search(uint32_t key) const {
  TCDB_ASSIGN_OR_RETURN(const std::optional<uint32_t> value, Find(key));
  if (!value.has_value()) return Status::NotFound("key not found");
  return *value;
}

Result<std::optional<std::pair<uint32_t, uint32_t>>> BPlusTree::LowerBound(
    uint32_t key) const {
  using Out = std::optional<std::pair<uint32_t, uint32_t>>;
  if (height_ == 0) return Out(std::nullopt);
  TCDB_ASSIGN_OR_RETURN(PageNumber leaf_no, FindLeaf(key));
  while (leaf_no != kInvalidPageNumber) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {file_, leaf_no},
                                           "BPlusTree::LowerBound"));
    const Entry* entries = Entries(page.get());
    const uint16_t count = Header(page.get())->count;
    const Entry* end = entries + count;
    const Entry* it = std::lower_bound(
        entries, end, key,
        [](const Entry& e, uint32_t k) { return e.key < k; });
    if (it != end) {
      return Out(std::make_pair(it->key, it->child_or_value));
    }
    leaf_no = Header(page.get())->link;
  }
  return Out(std::nullopt);
}

Status BPlusTree::ScanAll(
    std::vector<std::pair<uint32_t, uint32_t>>* out) const {
  if (height_ == 0) return Status::Ok();
  // Find the leftmost leaf.
  PageNumber page_no = root_;
  for (uint32_t depth = 1; depth < height_; ++depth) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {file_, page_no},
                                           "BPlusTree::ScanAll descend"));
    page_no = Header(page.get())->link;
  }
  while (page_no != kInvalidPageNumber) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {file_, page_no},
                                           "BPlusTree::ScanAll leaf"));
    const Entry* entries = Entries(page.get());
    for (uint16_t i = 0; i < Header(page.get())->count; ++i) {
      out->emplace_back(entries[i].key, entries[i].child_or_value);
    }
    page_no = Header(page.get())->link;
  }
  return Status::Ok();
}

Status BPlusTree::Insert(uint32_t key, uint32_t value) {
  if (height_ == 0) {
    TCDB_ASSIGN_OR_RETURN(
        NewPageGuard leaf,
        NewPageGuard::Alloc(buffers_, file_, "BPlusTree::Insert first leaf"));
    NodeHeader* header = Header(leaf.get());
    header->type = kLeafType;
    header->count = 1;
    header->link = kInvalidPageNumber;
    Entries(leaf.get())[0] = Entry{key, value};
    root_ = leaf.page_no();
    height_ = 1;
    size_ = 1;
    return Status::Ok();
  }
  std::optional<std::pair<uint32_t, PageNumber>> split;
  TCDB_RETURN_IF_ERROR(InsertRecursive(root_, 1, key, value, &split));
  if (split.has_value()) {
    // Grow the tree with a new root.
    TCDB_ASSIGN_OR_RETURN(
        NewPageGuard node,
        NewPageGuard::Alloc(buffers_, file_, "BPlusTree::Insert new root"));
    NodeHeader* header = Header(node.get());
    header->type = kInternalType;
    header->count = 1;
    header->link = root_;
    Entries(node.get())[0] = Entry{split->first, split->second};
    root_ = node.page_no();
    ++height_;
  }
  ++size_;
  return Status::Ok();
}

Status BPlusTree::InsertRecursive(
    PageNumber node, uint32_t depth, uint32_t key, uint32_t value,
    std::optional<std::pair<uint32_t, PageNumber>>* split) {
  split->reset();
  const bool is_leaf = depth == height_;
  if (!is_leaf) {
    PageNumber child;
    {
      TCDB_ASSIGN_OR_RETURN(
          PageGuard page,
          PageGuard::Fetch(buffers_, {file_, node},
                           "BPlusTree::InsertRecursive descend"));
      TCDB_CHECK_EQ(Header(page.get())->type, kInternalType);
      child = ChildFor(page.get(), key);
    }
    std::optional<std::pair<uint32_t, PageNumber>> child_split;
    TCDB_RETURN_IF_ERROR(
        InsertRecursive(child, depth + 1, key, value, &child_split));
    if (!child_split.has_value()) return Status::Ok();

    // Insert the separator produced by the child split.
    TCDB_ASSIGN_OR_RETURN(
        PageGuard page,
        PageGuard::Fetch(buffers_, {file_, node},
                         "BPlusTree::InsertRecursive separator"));
    NodeHeader* header = Header(page.get());
    Entry* entries = Entries(page.get());
    if (header->count < kEntryCapacity) {
      uint16_t i = header->count;
      while (i > 0 && entries[i - 1].key > child_split->first) {
        entries[i] = entries[i - 1];
        --i;
      }
      entries[i] = Entry{child_split->first, child_split->second};
      header->count++;
      page.MarkDirty();
      return Status::Ok();
    }
    // Split this internal node. Gather count+1 separators, keep the left
    // half here, push the median up, move the right half to a new node.
    std::vector<Entry> all(entries, entries + header->count);
    auto it = std::lower_bound(
        all.begin(), all.end(), child_split->first,
        [](const Entry& e, uint32_t k) { return e.key < k; });
    all.insert(it, Entry{child_split->first, child_split->second});
    const size_t mid = all.size() / 2;
    const Entry median = all[mid];
    header->count = static_cast<uint16_t>(mid);
    std::copy(all.begin(), all.begin() + mid, entries);
    page.MarkDirty();
    page.Release();  // keep pool pressure flat while allocating the sibling

    TCDB_ASSIGN_OR_RETURN(
        NewPageGuard right,
        NewPageGuard::Alloc(buffers_, file_,
                            "BPlusTree::InsertRecursive internal split"));
    NodeHeader* right_header = Header(right.get());
    right_header->type = kInternalType;
    right_header->count = static_cast<uint16_t>(all.size() - mid - 1);
    right_header->link = median.child_or_value;
    std::copy(all.begin() + mid + 1, all.end(), Entries(right.get()));
    *split = std::make_pair(median.key, right.page_no());
    return Status::Ok();
  }

  // Leaf insert.
  TCDB_ASSIGN_OR_RETURN(PageGuard page,
                        PageGuard::Fetch(buffers_, {file_, node},
                                         "BPlusTree::InsertRecursive leaf"));
  NodeHeader* header = Header(page.get());
  TCDB_CHECK_EQ(header->type, kLeafType);
  Entry* entries = Entries(page.get());
  const Entry* const_entries = entries;
  const Entry* end = const_entries + header->count;
  const Entry* found =
      std::lower_bound(const_entries, end, key,
                       [](const Entry& e, uint32_t k) { return e.key < k; });
  if (found != end && found->key == key) {
    return Status::InvalidArgument("duplicate key");
  }
  if (header->count < kEntryCapacity) {
    uint16_t i = header->count;
    while (i > 0 && entries[i - 1].key > key) {
      entries[i] = entries[i - 1];
      --i;
    }
    entries[i] = Entry{key, value};
    header->count++;
    page.MarkDirty();
    return Status::Ok();
  }
  // Split the leaf. The new sibling is allocated while the leaf is still
  // pinned: its header link feeds the sibling before the leaf is rewritten.
  std::vector<Entry> all(entries, entries + header->count);
  auto it = std::lower_bound(
      all.begin(), all.end(), key,
      [](const Entry& e, uint32_t k) { return e.key < k; });
  all.insert(it, Entry{key, value});
  const size_t mid = all.size() / 2;
  TCDB_ASSIGN_OR_RETURN(
      NewPageGuard right,
      NewPageGuard::Alloc(buffers_, file_,
                          "BPlusTree::InsertRecursive leaf split"));
  NodeHeader* right_header = Header(right.get());
  right_header->type = kLeafType;
  right_header->count = static_cast<uint16_t>(all.size() - mid);
  right_header->link = header->link;
  std::copy(all.begin() + mid, all.end(), Entries(right.get()));

  header->count = static_cast<uint16_t>(mid);
  header->link = right.page_no();
  std::copy(all.begin(), all.begin() + mid, entries);
  page.MarkDirty();
  *split = std::make_pair(all[mid].key, right.page_no());
  return Status::Ok();
}

Status BPlusTree::CheckInvariants() const {
  if (height_ == 0) {
    return size_ == 0 ? Status::Ok()
                      : Status::Corruption("empty tree with nonzero size");
  }
  // Walk the whole tree recursively, checking key bounds and depth, then
  // verify the leaf chain visits all entries in order.
  struct Walker {
    const BPlusTree* tree;
    int64_t leaf_entries = 0;
    std::vector<PageNumber> leaves;

    Status Walk(PageNumber node, uint32_t depth, uint32_t lower_incl,
                bool has_lower, uint32_t upper_excl, bool has_upper) {
      NodeHeader header;
      std::vector<Entry> entries;
      {
        TCDB_ASSIGN_OR_RETURN(
            PageGuard page,
            PageGuard::Fetch(tree->buffers_, {tree->file_, node},
                             "BPlusTree::CheckInvariants"));
        header = *Header(page.get());
        entries.assign(Entries(page.get()),
                       Entries(page.get()) + header.count);
      }

      for (size_t i = 0; i + 1 < entries.size(); ++i) {
        if (entries[i].key >= entries[i + 1].key) {
          return Status::Corruption("unsorted keys in node");
        }
      }
      for (const Entry& entry : entries) {
        if ((has_lower && entry.key < lower_incl) ||
            (has_upper && entry.key >= upper_excl)) {
          return Status::Corruption("key outside separator bounds");
        }
      }
      if (depth == tree->height_) {
        if (header.type != kLeafType) {
          return Status::Corruption("non-leaf at leaf depth");
        }
        leaf_entries += header.count;
        leaves.push_back(node);
        return Status::Ok();
      }
      if (header.type != kInternalType) {
        return Status::Corruption("leaf at internal depth");
      }
      // Leftmost child: bounded above by first separator.
      TCDB_RETURN_IF_ERROR(Walk(header.link, depth + 1, lower_incl, has_lower,
                                entries.empty() ? upper_excl : entries[0].key,
                                entries.empty() ? has_upper : true));
      for (size_t i = 0; i < entries.size(); ++i) {
        const bool last = i + 1 == entries.size();
        TCDB_RETURN_IF_ERROR(Walk(entries[i].child_or_value, depth + 1,
                                  entries[i].key, true,
                                  last ? upper_excl : entries[i + 1].key,
                                  last ? has_upper : true));
      }
      return Status::Ok();
    }
  };
  Walker walker{this, 0, {}};
  TCDB_RETURN_IF_ERROR(walker.Walk(root_, 1, 0, false, 0, false));
  if (walker.leaf_entries != size_) {
    return Status::Corruption("leaf entry count does not match tree size");
  }
  // Verify the leaf chain is exactly the left-to-right leaf sequence.
  std::vector<std::pair<uint32_t, uint32_t>> scanned;
  TCDB_RETURN_IF_ERROR(ScanAll(&scanned));
  if (static_cast<int64_t>(scanned.size()) != size_) {
    return Status::Corruption("leaf chain does not cover all entries");
  }
  for (size_t i = 1; i < scanned.size(); ++i) {
    if (scanned[i - 1].first >= scanned[i].first) {
      return Status::Corruption("leaf chain out of order");
    }
  }
  return Status::Ok();
}

}  // namespace tcdb

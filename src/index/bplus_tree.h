#ifndef TCDB_INDEX_BPLUS_TREE_H_
#define TCDB_INDEX_BPLUS_TREE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "util/status.h"

namespace tcdb {

// Disk-resident B+-tree mapping uint32 keys to uint32 values, used as the
// clustered index on the source attribute of the input relation (and on the
// destination attribute of the inverse relation for the dual representation
// required by JKB2). All page access goes through the buffer manager, so
// index probes contribute page I/O like any other access.
//
// Tree metadata (root page, height) is kept in memory; on a real system it
// would live in a header page, but the study never re-opens files, and
// charging a constant extra I/O per query would only add noise.
class BPlusTree {
 public:
  // Creates an empty tree whose nodes are allocated in `file`.
  BPlusTree(BufferManager* buffers, FileId file);

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  // Bulk-loads from entries sorted by strictly increasing key. Requires an
  // empty tree. Leaves are filled completely (the study's data is static).
  Status BulkLoad(const std::vector<std::pair<uint32_t, uint32_t>>& entries);

  // Inserts (key, value); returns InvalidArgument if the key already exists.
  Status Insert(uint32_t key, uint32_t value);

  // Exact-match lookup: the value mapped to `key`, or nullopt when the key
  // is absent. An absent key is an answer, not an error: only a failed
  // page access (e.g. kResourceExhausted with every frame pinned) is.
  Result<std::optional<uint32_t>> Find(uint32_t key) const;

  // Exact-match lookup that reports an absent key as kNotFound. Every
  // other error of the descent is returned as is.
  Result<uint32_t> Search(uint32_t key) const;

  // Returns the first entry with key >= `key`, or nullopt if none.
  Result<std::optional<std::pair<uint32_t, uint32_t>>> LowerBound(
      uint32_t key) const;

  // Appends all entries in key order to `out` (test/diagnostic helper).
  Status ScanAll(std::vector<std::pair<uint32_t, uint32_t>>* out) const;

  int64_t size() const { return size_; }
  uint32_t height() const { return height_; }
  FileId file() const { return file_; }

  // Structural invariant checker used by tests: sorted keys, correct
  // separator keys, uniform leaf depth, linked leaves.
  Status CheckInvariants() const;

 private:
  // Descends to the leaf that may contain `key`. Returns its page number.
  // Requires a non-empty tree.
  Result<PageNumber> FindLeaf(uint32_t key) const;

  // Insert helper: recursive descent returning an optional split
  // (separator key, new right page).
  Status InsertRecursive(PageNumber node, uint32_t depth, uint32_t key,
                         uint32_t value,
                         std::optional<std::pair<uint32_t, PageNumber>>* split);

  BufferManager* buffers_;
  FileId file_;
  PageNumber root_ = kInvalidPageNumber;
  uint32_t height_ = 0;  // 0 = empty; 1 = root is a leaf.
  int64_t size_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_INDEX_BPLUS_TREE_H_

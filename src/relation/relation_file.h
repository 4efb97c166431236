#ifndef TCDB_RELATION_RELATION_FILE_H_
#define TCDB_RELATION_RELATION_FILE_H_

#include <functional>
#include <memory>
#include <vector>

#include "index/bplus_tree.h"
#include "relation/arc.h"
#include "storage/buffer_manager.h"
#include "util/status.h"

namespace tcdb {

// A clustered binary relation on the simulated disk: tuples sorted by
// (src, dst), packed 256 per page, with a clustered B+-tree index mapping
// each distinct src value to the first page that contains it (paper
// Section 4: "the relation is stored on disk as a set of tuples clustered
// on the source attribute [with] a clustered index on the source
// attribute").
//
// The inverse relation of the dual representation is just a RelationFile
// built from the swapped arcs, clustered and indexed on the (original)
// destination attribute.
class RelationFile {
 public:
  // Builds the relation in `data_file` and its index in `index_file`.
  // `arcs` must be sorted by (src, dst) and duplicate-free. Page traffic
  // goes through `buffers`, so the caller controls phase attribution.
  static Status Build(BufferManager* buffers, FileId data_file,
                      FileId index_file, const ArcList& arcs,
                      std::unique_ptr<RelationFile>* out);

  // Appends the destinations of every tuple with the given src to `out`,
  // using the clustered index. I/O: one index descent plus the data pages
  // holding the matching tuples. A src with no tuples yields an empty
  // result and allocates nothing; a failed page access is returned.
  Status LookupSrc(int32_t src, std::vector<int32_t>* out) const;

  // Invokes `fn` for every tuple in clustered order (sequential scan).
  Status Scan(const std::function<void(const Arc&)>& fn) const;

  int64_t num_tuples() const { return num_tuples_; }
  PageNumber num_data_pages() const { return num_data_pages_; }
  const BPlusTree& index() const { return *index_; }

 private:
  RelationFile(BufferManager* buffers, FileId data_file,
               std::unique_ptr<BPlusTree> index)
      : buffers_(buffers), data_file_(data_file), index_(std::move(index)) {}

  // Number of tuples on `page_no` (all pages are full except the last).
  size_t PageTupleCount(PageNumber page_no) const {
    if (page_no + 1 < num_data_pages_) return kTuplesPerPage;
    return static_cast<size_t>(num_tuples_) -
           static_cast<size_t>(num_data_pages_ - 1) * kTuplesPerPage;
  }

  BufferManager* buffers_;
  FileId data_file_;
  std::unique_ptr<BPlusTree> index_;
  int64_t num_tuples_ = 0;
  PageNumber num_data_pages_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_RELATION_RELATION_FILE_H_

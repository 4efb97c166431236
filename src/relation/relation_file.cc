#include "relation/relation_file.h"

#include <algorithm>

#include "storage/page_guard.h"
#include "util/lower_bound.h"

namespace tcdb {

ArcList ReverseArcs(const ArcList& arcs) {
  ArcList reversed;
  reversed.reserve(arcs.size());
  for (const Arc& arc : arcs) reversed.push_back(Arc{arc.dst, arc.src});
  std::sort(reversed.begin(), reversed.end());
  return reversed;
}

Status RelationFile::Build(BufferManager* buffers, FileId data_file,
                           FileId index_file, const ArcList& arcs,
                           std::unique_ptr<RelationFile>* out) {
  for (size_t i = 1; i < arcs.size(); ++i) {
    if (!(arcs[i - 1] < arcs[i])) {
      return Status::InvalidArgument(
          "relation arcs must be sorted by (src, dst) and duplicate-free");
    }
  }
  auto index = std::make_unique<BPlusTree>(buffers, index_file);
  std::vector<std::pair<uint32_t, uint32_t>> index_entries;

  // Write fully packed data pages; remember the first page of each distinct
  // src for the clustered index.
  PageNumber num_pages = 0;
  size_t pos = 0;
  while (pos < arcs.size()) {
    const size_t take = std::min(kTuplesPerPage, arcs.size() - pos);
    TCDB_ASSIGN_OR_RETURN(
        NewPageGuard page,
        NewPageGuard::Alloc(buffers, data_file, "RelationFile::Build"));
    Arc* tuples = page->As<Arc>(0);
    for (size_t i = 0; i < take; ++i) tuples[i] = arcs[pos + i];
    for (size_t i = 0; i < take; ++i) {
      const int32_t src = arcs[pos + i].src;
      if (index_entries.empty() ||
          index_entries.back().first != static_cast<uint32_t>(src)) {
        index_entries.emplace_back(static_cast<uint32_t>(src),
                                   page.page_no());
      }
    }
    ++num_pages;
    pos += take;
  }
  TCDB_RETURN_IF_ERROR(index->BulkLoad(index_entries));

  auto relation = std::unique_ptr<RelationFile>(
      new RelationFile(buffers, data_file, std::move(index)));
  relation->num_tuples_ = static_cast<int64_t>(arcs.size());
  relation->num_data_pages_ = num_pages;
  *out = std::move(relation);
  return Status::Ok();
}

Status RelationFile::LookupSrc(int32_t src, std::vector<int32_t>* out) const {
  TCDB_ASSIGN_OR_RETURN(const std::optional<uint32_t> first_page,
                        index_->Find(static_cast<uint32_t>(src)));
  if (!first_page.has_value()) return Status::Ok();  // No outgoing arcs.
  // Scan forward from the first page containing `src` until the tuples pass
  // it (tuples are clustered, so all matches are contiguous).
  for (PageNumber page_no = *first_page; page_no < num_data_pages_;
       ++page_no) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {data_file_, page_no},
                                           "RelationFile::LookupSrc"));
    const Arc* tuples = page->As<Arc>(0);
    const Arc* end = tuples + PageTupleCount(page_no);
    // The page's matching tuples form one run: binary-search its start,
    // then copy destinations until the run ends.
    const Arc* it = BranchlessLowerBound(
        tuples, static_cast<size_t>(end - tuples),
        [src](const Arc& a) { return a.src < src; });
    for (; it != end && it->src == src; ++it) out->push_back(it->dst);
    if (it != end) break;  // the run ended on this page
  }
  return Status::Ok();
}

Status RelationFile::Scan(const std::function<void(const Arc&)>& fn) const {
  for (PageNumber page_no = 0; page_no < num_data_pages_; ++page_no) {
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {data_file_, page_no},
                                           "RelationFile::Scan"));
    const Arc* tuples = page->As<Arc>(0);
    const size_t count = PageTupleCount(page_no);
    for (size_t i = 0; i < count; ++i) fn(tuples[i]);
  }
  return Status::Ok();
}

}  // namespace tcdb

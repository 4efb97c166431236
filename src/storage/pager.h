#ifndef TCDB_STORAGE_PAGER_H_
#define TCDB_STORAGE_PAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "util/status.h"

namespace tcdb {

// Simulated disk. Files are append-only arrays of 2048-byte pages; every
// ReadPage/WritePage is counted as one device I/O, attributed to the current
// phase. This mirrors the paper's methodology: "the number of page I/O's was
// recorded by the simulated buffer manager" (Section 6.1).
//
// The pages themselves live in memory: the disk is simulated, and only the
// counted I/O, not the storage medium, is the object of study.
//
// All page traffic is expected to flow through the BufferManager; the Pager
// is only used directly by tests and by bulk loaders that deliberately
// bypass buffering.
class Pager {
 public:
  Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Creates a new empty file and returns its id.
  FileId CreateFile(std::string name);

  size_t NumFiles() const { return files_.size(); }
  const std::string& FileName(FileId file) const;

  // Number of pages currently allocated in `file`.
  PageNumber FileSize(FileId file) const;

  // Appends a zeroed page to `file` and returns its page number. Allocation
  // itself is not an I/O; the data reaches "disk" when the page is written.
  PageNumber AllocatePage(FileId file);

  // Truncates `file` back to zero pages (used when re-running a query
  // against fresh scratch files). Not counted as I/O.
  void TruncateFile(FileId file);

  // Reads page `page_no` of `file` into `out`. Counts one device read.
  void ReadPage(FileId file, PageNumber page_no, Page* out);

  // Writes `in` to page `page_no` of `file`. Counts one device write.
  void WritePage(FileId file, PageNumber page_no, const Page& in);

  // Phase attribution for subsequent I/O.
  void SetPhase(Phase phase) { phase_ = phase; }
  Phase phase() const { return phase_; }

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  struct File {
    std::string name;
    PageNumber num_pages = 0;
    // Written pages, grown on demand in WritePage. A page that was
    // allocated but never written (absent or null here) reads as zeros.
    std::vector<std::unique_ptr<Page>> pages;
  };

  File& GetFile(FileId file);

  std::vector<File> files_;
  IoStats stats_;
  Phase phase_ = Phase::kSetup;
};

}  // namespace tcdb

#endif  // TCDB_STORAGE_PAGER_H_

#ifndef TCDB_SUCC_SUCCESSOR_LIST_STORE_H_
#define TCDB_SUCC_SUCCESSOR_LIST_STORE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_guard.h"
#include "util/status.h"

namespace tcdb {

// On-page geometry of the successor-list format (paper Section 5.1): each
// 2048-byte page is divided into 30 blocks of 15 4-byte successor slots, so
// 450 successors fit on a page.
inline constexpr int32_t kBlocksPerPage = 30;
inline constexpr int32_t kEntriesPerBlock = 15;
inline constexpr int32_t kEntriesPerListPage = kBlocksPerPage * kEntriesPerBlock;

// List replacement policies (paper Section 5.1): applied when a successor
// list expands to the point where its page has no free block — i.e. the
// page must be "split". The paper found the choice secondary; kMoveSelf is
// the default.
enum class ListPolicy {
  // The growing list continues on a fresh page of its own.
  kMoveSelf,
  // The other list with the most blocks on the crowded page is relocated to
  // a fresh page, freeing blocks in place for the growing list.
  kMoveLargest,
  // The other list that grew most recently is relocated.
  kMoveNewest,
};

const char* ListPolicyName(ListPolicy policy);

// Paged store of successor lists (and of the successor/predecessor *trees*
// used by SPN and JKB, which are lists of encoded int32 values). Lists are
// identified by dense ids in [0, num_lists). Entries are append-only; all
// page traffic goes through the buffer manager so every algorithm's list
// manipulation is I/O-accounted.
//
// Initial layout clusters lists in creation order ("inter-list
// clustering"): consecutive lists share pages. Growth keeps a list's blocks
// on its current page while free blocks remain ("intra-list clustering")
// and otherwise applies the list replacement policy.
//
// The block directory (which blocks belong to which list) is maintained in
// memory, as is per-page block ownership. The paper's implementation
// likewise kept its list directory resident; directory I/O is not modeled.
class SuccessorListStore {
 public:
  SuccessorListStore(BufferManager* buffers, FileId file,
                     ListPolicy policy = ListPolicy::kMoveSelf);

  SuccessorListStore(const SuccessorListStore&) = delete;
  SuccessorListStore& operator=(const SuccessorListStore&) = delete;

  // Discards any previous contents and creates `num_lists` empty lists.
  // (The underlying file is truncated; buffered pages are dropped.)
  void Reset(int32_t num_lists);

  int32_t num_lists() const { return static_cast<int32_t>(lists_.size()); }

  // Appends one value to the list.
  Status Append(int32_t list, int32_t value);

  // Appends a batch of values (more efficient: one page fetch per block).
  Status AppendMany(int32_t list, std::span<const int32_t> values);

  // Reads the full list into `out` (appended). Counts one list read and
  // `ListLength(list)` entry reads.
  Status Read(int32_t list, std::vector<int32_t>* out) const;

  // Empties the list, freeing its blocks for reuse (directory-only change;
  // no page I/O). Subsequent appends prefer the list's old first page. Used
  // by the tree algorithms, which rewrite a tree after expanding it (the
  // tree's structure, not just its tail, changes).
  void Truncate(int32_t list);

  int32_t ListLength(int32_t list) const {
    TCDB_DCHECK(list >= 0 && list < num_lists());
    return lists_[list].length;
  }

  // Unique pages holding blocks of `list`, in block order.
  std::vector<PageNumber> ListPages(int32_t list) const;

  // Pins every page of `list` in the buffer pool (used by the Hybrid
  // algorithm's diagonal block). Fails with kResourceExhausted if the pool
  // cannot hold them; on error the guards already taken release their pins
  // as they go out of scope. The pins live exactly as long as the returned
  // guards.
  Result<std::vector<PageGuard>> PinListPages(int32_t list);

  // Write-out step: flushes every page holding blocks of lists with
  // keep[list] == true and drops (without writing) pages holding only
  // non-kept lists. Pages shared by kept and non-kept lists are flushed.
  // With keep == all lists this is the CTC "write the expanded lists out to
  // disk"; for PTC only the source-node lists are kept.
  void FinalizeKeepLists(const std::vector<bool>& keep);

  // Cumulative counters corresponding to the literature's "successor list
  // I/O" and "tuple I/O" metrics (paper Section 7).
  int64_t lists_read() const { return lists_read_; }
  int64_t entries_read() const { return entries_read_; }
  int64_t entries_written() const { return entries_written_; }
  // Number of page splits resolved by the list replacement policy.
  int64_t list_moves() const { return list_moves_; }

  int64_t TotalEntries() const;
  PageNumber NumPages() const {
    return static_cast<PageNumber>(page_owners_.size());
  }

  FileId file() const { return file_; }

 private:
  struct BlockAddr {
    PageNumber page = kInvalidPageNumber;
    int32_t block = -1;
  };

  struct ListMeta {
    std::vector<BlockAddr> blocks;
    int32_t length = 0;
    uint64_t last_grow_tick = 0;
    // Where a truncated list prefers to restart (its old first page).
    PageNumber preferred_page = kInvalidPageNumber;
  };

  // Per-page block ownership (-1 = free).
  using PageOwners = std::array<int32_t, kBlocksPerPage>;

  // Allocates the next block for `list`, applying clustering and the list
  // replacement policy.
  Status AllocateBlock(int32_t list, BlockAddr* out);

  // Takes a free block on `page` for `list`. Requires one to exist.
  BlockAddr TakeFreeBlock(PageNumber page, int32_t list);

  // Appends a brand-new page to the file and returns its number.
  Status NewListPage(PageNumber* out);

  // Moves every block that `victim` owns on `page` to a fresh page.
  Status RelocateListBlocksFrom(int32_t victim, PageNumber page);

  // Chooses the list to relocate from `page` (never `grower`); returns -1
  // if no other list owns blocks there.
  int32_t PickVictimList(PageNumber page, int32_t grower) const;

  int32_t FreeBlockCount(PageNumber page) const;

  BufferManager* buffers_;
  FileId file_;
  ListPolicy policy_;

  std::vector<ListMeta> lists_;
  std::vector<PageOwners> page_owners_;
  // Page currently receiving first blocks of new lists (inter-list
  // clustering).
  PageNumber fill_page_ = kInvalidPageNumber;
  uint64_t grow_tick_ = 0;

  mutable int64_t lists_read_ = 0;
  mutable int64_t entries_read_ = 0;
  int64_t entries_written_ = 0;
  int64_t list_moves_ = 0;
};

}  // namespace tcdb

#endif  // TCDB_SUCC_SUCCESSOR_LIST_STORE_H_

#include "succ/successor_list_store.h"

#include <algorithm>
#include <cstring>

namespace tcdb {
namespace {

// Byte offset of slot `slot` in block `block`.
size_t SlotOffset(int32_t block, int32_t slot) {
  return (static_cast<size_t>(block) * kEntriesPerBlock +
          static_cast<size_t>(slot)) *
         sizeof(int32_t);
}

}  // namespace

const char* ListPolicyName(ListPolicy policy) {
  switch (policy) {
    case ListPolicy::kMoveSelf:
      return "move-self";
    case ListPolicy::kMoveLargest:
      return "move-largest";
    case ListPolicy::kMoveNewest:
      return "move-newest";
  }
  return "unknown";
}

SuccessorListStore::SuccessorListStore(BufferManager* buffers, FileId file,
                                       ListPolicy policy)
    : buffers_(buffers), file_(file), policy_(policy) {}

void SuccessorListStore::Reset(int32_t num_lists) {
  TCDB_CHECK_GE(num_lists, 0);
  // Drop by file, not by this store's page directory: the file may hold
  // pages of a previous store instance.
  buffers_->DiscardFile(file_);
  buffers_->pager()->TruncateFile(file_);
  lists_.assign(static_cast<size_t>(num_lists), ListMeta{});
  page_owners_.clear();
  fill_page_ = kInvalidPageNumber;
  grow_tick_ = 0;
  lists_read_ = entries_read_ = entries_written_ = list_moves_ = 0;
}

int32_t SuccessorListStore::FreeBlockCount(PageNumber page) const {
  const PageOwners& owners = page_owners_[page];
  return static_cast<int32_t>(
      std::count(owners.begin(), owners.end(), -1));
}

Status SuccessorListStore::NewListPage(PageNumber* out) {
  TCDB_ASSIGN_OR_RETURN(
      NewPageGuard page,
      NewPageGuard::Alloc(buffers_, file_, "SuccessorListStore::NewListPage"));
  PageOwners owners;
  owners.fill(-1);
  page_owners_.push_back(owners);
  TCDB_CHECK_EQ(page_owners_.size(), static_cast<size_t>(page.page_no()) + 1);
  *out = page.page_no();
  return Status::Ok();
}

SuccessorListStore::BlockAddr SuccessorListStore::TakeFreeBlock(
    PageNumber page, int32_t list) {
  PageOwners& owners = page_owners_[page];
  for (int32_t b = 0; b < kBlocksPerPage; ++b) {
    if (owners[b] == -1) {
      owners[b] = list;
      return BlockAddr{page, b};
    }
  }
  TCDB_CHECK(false) << "TakeFreeBlock on full page";
  return {};
}

int32_t SuccessorListStore::PickVictimList(PageNumber page,
                                           int32_t grower) const {
  const PageOwners& owners = page_owners_[page];
  // Count blocks per owning list on this page.
  int32_t best = -1;
  int32_t best_blocks = 0;
  uint64_t best_tick = 0;
  for (int32_t b = 0; b < kBlocksPerPage; ++b) {
    const int32_t owner = owners[b];
    if (owner < 0 || owner == grower) continue;
    int32_t blocks_here = 0;
    for (int32_t b2 = 0; b2 < kBlocksPerPage; ++b2) {
      if (owners[b2] == owner) ++blocks_here;
    }
    const uint64_t tick = lists_[owner].last_grow_tick;
    bool better = false;
    if (best == -1) {
      better = true;
    } else if (policy_ == ListPolicy::kMoveLargest) {
      better = blocks_here > best_blocks ||
               (blocks_here == best_blocks && owner < best);
    } else {  // kMoveNewest
      better = tick > best_tick || (tick == best_tick && owner < best);
    }
    if (better) {
      best = owner;
      best_blocks = blocks_here;
      best_tick = tick;
    }
  }
  return best;
}

Status SuccessorListStore::RelocateListBlocksFrom(int32_t victim,
                                                  PageNumber page) {
  // Collect the victim's blocks on `page`, in directory order.
  ListMeta& meta = lists_[victim];
  PageNumber fresh;
  TCDB_RETURN_IF_ERROR(NewListPage(&fresh));
  TCDB_ASSIGN_OR_RETURN(
      PageGuard src_page,
      PageGuard::Fetch(buffers_, {file_, page},
                       "SuccessorListStore::RelocateListBlocksFrom src"));
  TCDB_ASSIGN_OR_RETURN(
      PageGuard dst_page,
      PageGuard::Fetch(buffers_, {file_, fresh},
                       "SuccessorListStore::RelocateListBlocksFrom dst"));
  for (BlockAddr& addr : meta.blocks) {
    if (addr.page != page) continue;
    const BlockAddr fresh_addr = TakeFreeBlock(fresh, victim);
    std::memcpy(dst_page->As<int32_t>(SlotOffset(fresh_addr.block, 0)),
                src_page->As<int32_t>(SlotOffset(addr.block, 0)),
                kEntriesPerBlock * sizeof(int32_t));
    page_owners_[page][addr.block] = -1;
    addr = fresh_addr;
  }
  src_page.MarkDirty();
  dst_page.MarkDirty();
  ++list_moves_;
  return Status::Ok();
}

Status SuccessorListStore::AllocateBlock(int32_t list, BlockAddr* out) {
  ListMeta& meta = lists_[list];
  if (!meta.blocks.empty()) {
    const PageNumber page = meta.blocks.back().page;
    if (FreeBlockCount(page) > 0) {
      *out = TakeFreeBlock(page, list);
      return Status::Ok();
    }
    // Page split required: apply the list replacement policy.
    if (policy_ != ListPolicy::kMoveSelf) {
      const int32_t victim = PickVictimList(page, list);
      if (victim >= 0) {
        TCDB_RETURN_IF_ERROR(RelocateListBlocksFrom(victim, page));
        *out = TakeFreeBlock(page, list);
        return Status::Ok();
      }
    }
    // Move-self (or no other list to displace): continue on a fresh page.
    PageNumber fresh;
    TCDB_RETURN_IF_ERROR(NewListPage(&fresh));
    if (policy_ != ListPolicy::kMoveSelf) ++list_moves_;
    *out = TakeFreeBlock(fresh, list);
    return Status::Ok();
  }
  // A truncated list restarts on its old first page when possible.
  if (meta.preferred_page != kInvalidPageNumber &&
      FreeBlockCount(meta.preferred_page) > 0) {
    *out = TakeFreeBlock(meta.preferred_page, list);
    return Status::Ok();
  }
  // First block of the list: cluster onto the current fill page.
  if (fill_page_ == kInvalidPageNumber || FreeBlockCount(fill_page_) == 0) {
    TCDB_RETURN_IF_ERROR(NewListPage(&fill_page_));
  }
  *out = TakeFreeBlock(fill_page_, list);
  return Status::Ok();
}

void SuccessorListStore::Truncate(int32_t list) {
  TCDB_CHECK(list >= 0 && list < num_lists());
  ListMeta& meta = lists_[list];
  if (!meta.blocks.empty()) meta.preferred_page = meta.blocks.front().page;
  for (const BlockAddr& addr : meta.blocks) {
    page_owners_[addr.page][addr.block] = -1;
  }
  meta.blocks.clear();
  meta.length = 0;
}

Status SuccessorListStore::Append(int32_t list, int32_t value) {
  return AppendMany(list, std::span<const int32_t>(&value, 1));
}

Status SuccessorListStore::AppendMany(int32_t list,
                                      std::span<const int32_t> values) {
  TCDB_CHECK(list >= 0 && list < num_lists());
  ListMeta& meta = lists_[list];
  size_t pos = 0;
  while (pos < values.size()) {
    int32_t slot = meta.length % kEntriesPerBlock;
    if (slot == 0 && static_cast<size_t>(meta.length) ==
                         meta.blocks.size() * kEntriesPerBlock) {
      BlockAddr addr;
      TCDB_RETURN_IF_ERROR(AllocateBlock(list, &addr));
      meta.blocks.push_back(addr);
    }
    const BlockAddr addr = meta.blocks.back();
    const size_t take = std::min(values.size() - pos,
                                 static_cast<size_t>(kEntriesPerBlock - slot));
    TCDB_ASSIGN_OR_RETURN(
        PageGuard page,
        PageGuard::Fetch(buffers_, {file_, addr.page},
                         "SuccessorListStore::AppendMany"));
    std::memcpy(page->As<int32_t>(SlotOffset(addr.block, slot)),
                values.data() + pos, take * sizeof(int32_t));
    page.MarkDirty();
    meta.length += static_cast<int32_t>(take);
    pos += take;
  }
  entries_written_ += static_cast<int64_t>(values.size());
  meta.last_grow_tick = ++grow_tick_;
  return Status::Ok();
}

Status SuccessorListStore::Read(int32_t list, std::vector<int32_t>* out) const {
  TCDB_CHECK(list >= 0 && list < num_lists());
  const ListMeta& meta = lists_[list];
  int32_t remaining = meta.length;
  size_t block_index = 0;
  while (remaining > 0) {
    // Group consecutive blocks on the same page into one fetch.
    const PageNumber page_no = meta.blocks[block_index].page;
    TCDB_ASSIGN_OR_RETURN(PageGuard page,
                          PageGuard::Fetch(buffers_, {file_, page_no},
                                           "SuccessorListStore::Read"));
    while (remaining > 0 && block_index < meta.blocks.size() &&
           meta.blocks[block_index].page == page_no) {
      const int32_t take =
          std::min(remaining, kEntriesPerBlock);
      const int32_t* slots =
          page->As<int32_t>(SlotOffset(meta.blocks[block_index].block, 0));
      out->insert(out->end(), slots, slots + take);
      remaining -= take;
      ++block_index;
    }
  }
  ++lists_read_;
  entries_read_ += meta.length;
  return Status::Ok();
}

std::vector<PageNumber> SuccessorListStore::ListPages(int32_t list) const {
  TCDB_CHECK(list >= 0 && list < num_lists());
  std::vector<PageNumber> pages;
  for (const BlockAddr& addr : lists_[list].blocks) {
    if (pages.empty() || pages.back() != addr.page) {
      if (std::find(pages.begin(), pages.end(), addr.page) == pages.end()) {
        pages.push_back(addr.page);
      }
    }
  }
  return pages;
}

Result<std::vector<PageGuard>> SuccessorListStore::PinListPages(
    int32_t list) {
  std::vector<PageGuard> guards;
  for (const PageNumber page : ListPages(list)) {
    TCDB_ASSIGN_OR_RETURN(
        PageGuard guard,
        PageGuard::Fetch(buffers_, {file_, page},
                         "SuccessorListStore::PinListPages"));
    guards.push_back(std::move(guard));
  }
  return guards;
}

void SuccessorListStore::FinalizeKeepLists(const std::vector<bool>& keep) {
  TCDB_CHECK_EQ(keep.size(), lists_.size());
  std::vector<bool> keep_page(page_owners_.size(), false);
  for (size_t list = 0; list < lists_.size(); ++list) {
    if (!keep[list]) continue;
    for (const BlockAddr& addr : lists_[list].blocks) {
      keep_page[addr.page] = true;
    }
  }
  for (PageNumber p = 0; p < NumPages(); ++p) {
    if (keep_page[p]) {
      buffers_->FlushPage({file_, p});
    } else {
      buffers_->DiscardPage({file_, p});
    }
  }
}

int64_t SuccessorListStore::TotalEntries() const {
  int64_t total = 0;
  for (const ListMeta& meta : lists_) total += meta.length;
  return total;
}

}  // namespace tcdb

#ifndef TCDB_STORAGE_PAGE_GUARD_H_
#define TCDB_STORAGE_PAGE_GUARD_H_

#include <utility>

#include "storage/buffer_manager.h"
#include "util/status.h"

namespace tcdb {

// Move-only RAII wrapper around the BufferManager pin discipline. A guard
// obtained from Fetch() holds exactly one pin on its page and releases it
// when the guard is destroyed (or moved from, or Release()d), so early
// returns and error paths cannot leak pins. Pages are unpinned clean unless
// MarkDirty() was called.
//
// All algorithm/index/store page access outside src/storage/ goes through
// PageGuard / NewPageGuard; raw FetchPage/NewPage/Unpin calls are reserved
// for the storage layer itself and for tests (enforced by a grep check in
// tools/check.sh).
//
// Usage:
//   TCDB_ASSIGN_OR_RETURN(PageGuard page,
//                         PageGuard::Fetch(buffers, {file, page_no}));
//   page->As<int32_t>(offset)[0] = value;
//   page.MarkDirty();
//   // pin released at scope exit
class PageGuard {
 public:
  PageGuard() = default;

  // Fetches `id` pinned, reading it from disk on a miss. `tag` (a string
  // literal with static lifetime) names the pinning site in the buffer
  // manager's pin-provenance report.
  static Result<PageGuard> Fetch(BufferManager* buffers, PageId id,
                                 const char* tag = nullptr) {
    TCDB_ASSIGN_OR_RETURN(const BufferManager::Pin pin,
                          buffers->PinPage(id, tag));
    return PageGuard(buffers, id, pin, /*dirty=*/false);
  }

  PageGuard(PageGuard&& other) noexcept
      : buffers_(std::exchange(other.buffers_, nullptr)),
        id_(other.id_),
        page_(std::exchange(other.page_, nullptr)),
        frame_(other.frame_),
        dirty_(other.dirty_) {}

  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      buffers_ = std::exchange(other.buffers_, nullptr);
      id_ = other.id_;
      page_ = std::exchange(other.page_, nullptr);
      frame_ = other.frame_;
      dirty_ = other.dirty_;
    }
    return *this;
  }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  ~PageGuard() { Release(); }

  // Marks the page as modified; it will be unpinned dirty.
  void MarkDirty() { dirty_ = true; }

  // Releases the pin now (idempotent). The guard no longer holds a page.
  // The pin is released by frame index: no page-table lookup.
  void Release() {
    if (page_ != nullptr) {
      buffers_->UnpinFrame(frame_, dirty_);
      buffers_ = nullptr;
      page_ = nullptr;
      dirty_ = false;
    }
  }

  bool holds() const { return page_ != nullptr; }
  PageId id() const { return id_; }

  Page* get() const {
    TCDB_DCHECK(page_ != nullptr);
    return page_;
  }
  Page* operator->() const { return get(); }
  Page& operator*() const { return *get(); }

 private:
  friend class NewPageGuard;

  PageGuard(BufferManager* buffers, PageId id, BufferManager::Pin pin,
            bool dirty)
      : buffers_(buffers),
        id_(id),
        page_(pin.page),
        frame_(pin.frame),
        dirty_(dirty) {}

  BufferManager* buffers_ = nullptr;
  PageId id_{};
  Page* page_ = nullptr;
  uint32_t frame_ = BufferManager::kNoFrame;  // the frame holding the pin
  bool dirty_ = false;
};

// RAII wrapper for page allocation: the fresh zeroed page is born pinned
// and dirty (it must reach disk eventually), and the pin is released when
// the guard dies. page_no() names the page just allocated.
class NewPageGuard {
 public:
  NewPageGuard() = default;

  static Result<NewPageGuard> Alloc(BufferManager* buffers, FileId file,
                                    const char* tag = nullptr) {
    TCDB_ASSIGN_OR_RETURN(auto page, buffers->NewPinnedPage(file, tag));
    NewPageGuard out;
    out.guard_ = PageGuard(buffers, PageId{file, page.first}, page.second,
                           /*dirty=*/true);
    return out;
  }

  PageNumber page_no() const { return guard_.id().page_no; }
  PageId id() const { return guard_.id(); }
  bool holds() const { return guard_.holds(); }

  // Releases the pin now (idempotent).
  void Release() { guard_.Release(); }

  Page* get() const { return guard_.get(); }
  Page* operator->() const { return guard_.get(); }
  Page& operator*() const { return *guard_.get(); }

 private:
  PageGuard guard_;
};

}  // namespace tcdb

#endif  // TCDB_STORAGE_PAGE_GUARD_H_

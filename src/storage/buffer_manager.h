#ifndef TCDB_STORAGE_BUFFER_MANAGER_H_
#define TCDB_STORAGE_BUFFER_MANAGER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/replacement_policy.h"
#include "util/status.h"

namespace tcdb {

// Buffer hit/miss counters, attributed by file and phase. The paper's
// Figure 13 reports the hit ratio of successor-list page requests during the
// computation phase only, which requires this granularity.
class AccessStats {
 public:
  struct HitMiss {
    uint64_t hits = 0;
    uint64_t misses = 0;

    uint64_t requests() const { return hits + misses; }
    double HitRatio() const {
      const uint64_t r = requests();
      return r == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(r);
    }
    HitMiss& operator+=(const HitMiss& other) {
      hits += other.hits;
      misses += other.misses;
      return *this;
    }
  };

  void RecordHit(FileId file, Phase phase) { Cell(file, phase).hits++; }
  void RecordMiss(FileId file, Phase phase) { Cell(file, phase).misses++; }

  HitMiss ForPhase(Phase phase) const;
  HitMiss ForFileAndPhase(FileId file, Phase phase) const;
  HitMiss Total() const;

  void Reset() { per_file_.clear(); }

 private:
  HitMiss& Cell(FileId file, Phase phase) {
    if (file >= per_file_.size()) per_file_.resize(file + 1);
    return per_file_[file][static_cast<size_t>(phase)];
  }

  std::vector<std::array<HitMiss, kNumPhases>> per_file_;
};

// Fixed-size buffer pool over the simulated disk. All algorithm page traffic
// goes through FetchPage/NewPage/Unpin; device I/O happens only on misses
// and dirty evictions, which is what makes the recorded page I/O counts
// meaningful.
//
// Pin discipline: FetchPage and NewPage return the page pinned; every
// successful call must be matched by exactly one Unpin. Pins nest. The pool
// reports kResourceExhausted when a miss occurs while every frame is pinned
// (the Hybrid algorithm uses this signal for dynamic reblocking).
//
// Outside the storage layer, pins are managed through PageGuard /
// NewPageGuard (storage/page_guard.h) rather than raw Fetch/Unpin pairs.
// The optional `tag` on FetchPage/NewPage (a string literal with static
// lifetime) records pin provenance so AuditNoPins() can name the call site
// that leaked a dangling pin.
//
// The page table is one dense array per file, indexed by page number and
// holding the frame index (or kNoFrame), grown on demand to the largest
// page number cached. A lookup is two array indexes; the hit path is
// inline. PageGuard keeps the frame index of its pin, so releasing it
// needs no lookup at all.
class BufferManager {
 public:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  // A pinned page together with the frame that holds it.
  struct Pin {
    Page* page;
    uint32_t frame;
  };

  BufferManager(Pager* pager, size_t num_frames, PagePolicy policy,
                uint64_t seed = 0x7c0ffee);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  // Returns the page pinned, reading it from disk on a miss.
  Result<Page*> FetchPage(PageId id, const char* tag = nullptr) {
    TCDB_ASSIGN_OR_RETURN(const Pin pin, PinPage(id, tag));
    return pin.page;
  }

  // FetchPage that also returns the frame, for UnpinFrame.
  Result<Pin> PinPage(PageId id, const char* tag = nullptr) {
    const uint32_t f = FrameOf(id);
    if (f == kNoFrame) return PinMiss(id, tag);
    const Phase phase = pager_->phase();
    Frame& frame = frames_[f];
    frame.pin_count++;
    frame.pin_tag = tag;
    frame.pin_phase = phase;
    evictable_[f] = 0;
    policy_->OnAccess(f);
    access_stats_.RecordHit(id.file, phase);
    return Pin{&pages_[f], f};
  }

  // Allocates a fresh zeroed page in `file`, pinned and dirty. The new page
  // is born in the pool (no device read).
  Result<std::pair<PageNumber, Page*>> NewPage(FileId file,
                                               const char* tag = nullptr);

  // NewPage that also returns the frame, for UnpinFrame.
  Result<std::pair<PageNumber, Pin>> NewPinnedPage(FileId file,
                                                   const char* tag = nullptr);

  // Releases one pin; `dirty` marks the frame as modified.
  void Unpin(PageId id, bool dirty) {
    const uint32_t f = FrameOf(id);
    TCDB_CHECK(f != kNoFrame) << "unpin of uncached page";
    UnpinFrame(f, dirty);
  }

  // Unpin by the frame a PinPage/NewPinnedPage returned. The frame cannot
  // have changed pages in between: a pinned frame is never a victim.
  void UnpinFrame(uint32_t f, bool dirty) {
    Frame& frame = frames_[f];
    TCDB_CHECK_GT(frame.pin_count, 0u) << "unpin of unpinned page";
    frame.dirty = frame.dirty || dirty;
    if (--frame.pin_count == 0) evictable_[f] = 1;
  }

  bool IsCached(PageId id) const { return FrameOf(id) != kNoFrame; }
  bool IsPinned(PageId id) const;

  // Writes all dirty unpinned-or-pinned frames to disk (does not evict).
  void FlushAll();

  // Writes dirty frames of `file` to disk (does not evict).
  void FlushFile(FileId file);

  // Writes the page to disk if it is cached and dirty (does not evict).
  void FlushPage(PageId id);

  // Drops the page from the pool without writing it, if cached. The page
  // must not be pinned. Used for PTC, where expanded non-source lists are
  // not part of the query answer and are not written out.
  void DiscardPage(PageId id);

  // Drops every unpinned frame without writing. Fatal if any frame is
  // pinned.
  void DiscardAll();

  // Drops every cached page of `file` without writing (fatal if any is
  // pinned). Required before truncating a file.
  void DiscardFile(FileId file);

  size_t num_frames() const { return frames_.size(); }
  size_t PinnedCount() const;
  size_t CachedCount() const { return frames_.size() - free_frames_.size(); }

  // Invariant audits. Both return OK when the pool is consistent and
  // kInternal with a diagnostic report otherwise. They are cheap (linear in
  // the frame count and the page-table size) and are asserted at phase
  // boundaries and at end of run; the stress harness also calls them
  // explicitly after every run.

  // Verifies that no frame holds a pin. The failure report names each
  // dangling pin's file, page number, pin count, pinning tag, and the phase
  // it was pinned in.
  Status AuditNoPins() const;

  // Verifies the page-table / frame / free-list bookkeeping: every table
  // entry maps to a valid frame with a matching id, every valid frame is in
  // the table, free frames are invalid and not duplicated, the evictable
  // flags match the pin counts, and free + valid == num_frames.
  Status AuditCachedCountConsistent() const;

  const AccessStats& access_stats() const { return access_stats_; }
  void ResetStats() { access_stats_.Reset(); }

  Pager* pager() { return pager_; }

 private:
  // Frame bookkeeping, kept apart from the page bytes so the victim scan
  // and the audits walk one compact array.
  struct Frame {
    PageId id;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool valid = false;
    // Pin provenance for the leak report: the tag and phase of the most
    // recent pinning call (string literal; never owned).
    Phase pin_phase = Phase::kSetup;
    const char* pin_tag = nullptr;
  };

  uint32_t FrameOf(PageId id) const {
    if (id.file >= page_table_.size()) return kNoFrame;
    const std::vector<uint32_t>& table = page_table_[id.file];
    return id.page_no < table.size() ? table[id.page_no] : kNoFrame;
  }

  // Points the page table entry of `id` at `frame` (or kNoFrame).
  void SetFrameOf(PageId id, uint32_t frame);

  // The out-of-line half of PinPage: reads `id` into a free or evicted
  // frame.
  Result<Pin> PinMiss(PageId id, const char* tag);

  // Finds a free frame, evicting a victim if necessary. Returns the frame
  // index or kResourceExhausted.
  Result<uint32_t> AcquireFrame();

  // Writes frame `f` back if dirty (unless `discard`), then unmaps it and
  // returns it to the invalid state. The caller decides whether it joins
  // the free list.
  void DropFrame(uint32_t f, bool discard);

  Pager* pager_;
  std::vector<Frame> frames_;
  std::vector<Page> pages_;  // pages_[f] is the page held by frame f
  // evictable_[f] is 1 iff frame f is valid and unpinned: the victim
  // candidates handed to the replacement policy.
  std::vector<uint8_t> evictable_;
  std::vector<uint32_t> free_frames_;
  // page_table_[file][page_no] is the frame holding that page, or kNoFrame.
  std::vector<std::vector<uint32_t>> page_table_;
  std::unique_ptr<ReplacementPolicy> policy_;
  AccessStats access_stats_;
};

}  // namespace tcdb

#endif  // TCDB_STORAGE_BUFFER_MANAGER_H_

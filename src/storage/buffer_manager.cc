#include "storage/buffer_manager.h"

namespace tcdb {

AccessStats::HitMiss AccessStats::ForPhase(Phase phase) const {
  HitMiss out;
  for (const auto& cells : per_file_) out += cells[static_cast<size_t>(phase)];
  return out;
}

AccessStats::HitMiss AccessStats::ForFileAndPhase(FileId file,
                                                  Phase phase) const {
  if (file >= per_file_.size()) return {};
  return per_file_[file][static_cast<size_t>(phase)];
}

AccessStats::HitMiss AccessStats::Total() const {
  HitMiss out;
  for (const auto& cells : per_file_) {
    for (const auto& cell : cells) out += cell;
  }
  return out;
}

BufferManager::BufferManager(Pager* pager, size_t num_frames,
                             PagePolicy policy, uint64_t seed)
    : pager_(pager),
      frames_(num_frames),
      pages_(num_frames),
      evictable_(num_frames, 0),
      policy_(MakeReplacementPolicy(policy, num_frames, seed)) {
  TCDB_CHECK_GT(num_frames, 0u);
  TCDB_CHECK_LT(num_frames, size_t{kNoFrame});
  free_frames_.reserve(num_frames);
  for (size_t f = num_frames; f-- > 0;) {
    free_frames_.push_back(static_cast<uint32_t>(f));
  }
}

bool BufferManager::IsPinned(PageId id) const {
  const uint32_t f = FrameOf(id);
  return f != kNoFrame && frames_[f].pin_count > 0;
}

size_t BufferManager::PinnedCount() const {
  size_t count = 0;
  for (const Frame& frame : frames_) {
    if (frame.valid && frame.pin_count > 0) ++count;
  }
  return count;
}

void BufferManager::SetFrameOf(PageId id, uint32_t frame) {
  if (id.file >= page_table_.size()) page_table_.resize(id.file + 1);
  std::vector<uint32_t>& table = page_table_[id.file];
  if (id.page_no >= table.size()) {
    table.resize(static_cast<size_t>(id.page_no) + 1, kNoFrame);
  }
  table[id.page_no] = frame;
}

Result<BufferManager::Pin> BufferManager::PinMiss(PageId id,
                                                  const char* tag) {
  const Phase phase = pager_->phase();
  TCDB_ASSIGN_OR_RETURN(const uint32_t f, AcquireFrame());
  Frame& frame = frames_[f];
  pager_->ReadPage(id.file, id.page_no, &pages_[f]);
  frame.id = id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.valid = true;
  frame.pin_tag = tag;
  frame.pin_phase = phase;
  SetFrameOf(id, f);
  policy_->OnInsert(f);
  access_stats_.RecordMiss(id.file, phase);
  return Pin{&pages_[f], f};
}

Result<std::pair<PageNumber, Page*>> BufferManager::NewPage(FileId file,
                                                            const char* tag) {
  TCDB_ASSIGN_OR_RETURN(const auto page, NewPinnedPage(file, tag));
  return std::make_pair(page.first, page.second.page);
}

Result<std::pair<PageNumber, BufferManager::Pin>> BufferManager::NewPinnedPage(
    FileId file, const char* tag) {
  TCDB_ASSIGN_OR_RETURN(const uint32_t f, AcquireFrame());
  const PageNumber page_no = pager_->AllocatePage(file);
  Frame& frame = frames_[f];
  pages_[f].Zero();
  frame.id = PageId{file, page_no};
  frame.pin_count = 1;
  frame.dirty = true;
  frame.valid = true;
  frame.pin_tag = tag;
  frame.pin_phase = pager_->phase();
  SetFrameOf(frame.id, f);
  policy_->OnInsert(f);
  return std::make_pair(page_no, Pin{&pages_[f], f});
}

Result<uint32_t> BufferManager::AcquireFrame() {
  if (!free_frames_.empty()) {
    const uint32_t f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  const std::optional<size_t> victim = policy_->PickVictim(evictable_);
  if (!victim.has_value()) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  const uint32_t f = static_cast<uint32_t>(*victim);
  DropFrame(f, /*discard=*/false);
  return f;
}

void BufferManager::DropFrame(uint32_t f, bool discard) {
  Frame& frame = frames_[f];
  TCDB_CHECK(frame.valid);
  TCDB_CHECK_EQ(frame.pin_count, 0u);
  if (frame.dirty && !discard) {
    pager_->WritePage(frame.id.file, frame.id.page_no, pages_[f]);
  }
  SetFrameOf(frame.id, kNoFrame);
  policy_->OnRemove(f);
  frame.valid = false;
  frame.dirty = false;
  evictable_[f] = 0;
}

void BufferManager::FlushAll() {
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.valid && frame.dirty) {
      pager_->WritePage(frame.id.file, frame.id.page_no, pages_[f]);
      frame.dirty = false;
    }
  }
}

void BufferManager::FlushFile(FileId file) {
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.valid && frame.dirty && frame.id.file == file) {
      pager_->WritePage(frame.id.file, frame.id.page_no, pages_[f]);
      frame.dirty = false;
    }
  }
}

void BufferManager::FlushPage(PageId id) {
  const uint32_t f = FrameOf(id);
  if (f == kNoFrame) return;
  Frame& frame = frames_[f];
  if (frame.dirty) {
    pager_->WritePage(frame.id.file, frame.id.page_no, pages_[f]);
    frame.dirty = false;
  }
}

void BufferManager::DiscardPage(PageId id) {
  const uint32_t f = FrameOf(id);
  if (f == kNoFrame) return;
  TCDB_CHECK_EQ(frames_[f].pin_count, 0u) << "discard of pinned page";
  DropFrame(f, /*discard=*/true);
  free_frames_.push_back(f);
}

void BufferManager::DiscardFile(FileId file) {
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    if (!frame.valid || frame.id.file != file) continue;
    TCDB_CHECK_EQ(frame.pin_count, 0u) << "DiscardFile with pinned page";
    DropFrame(f, /*discard=*/true);
    free_frames_.push_back(f);
  }
}

Status BufferManager::AuditNoPins() const {
  std::string report;
  for (const Frame& frame : frames_) {
    if (!frame.valid || frame.pin_count == 0) continue;
    report += "\n  dangling pin: file '" + pager_->FileName(frame.id.file) +
              "' page " + std::to_string(frame.id.page_no) + " pin_count " +
              std::to_string(frame.pin_count) + " pinned by '" +
              (frame.pin_tag != nullptr ? frame.pin_tag : "<untagged>") +
              "' in phase " + PhaseName(frame.pin_phase);
  }
  if (!report.empty()) {
    return Status::Internal("buffer pool pin leak:" + report);
  }
  return Status::Ok();
}

Status BufferManager::AuditCachedCountConsistent() const {
  size_t valid_count = 0;
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    const Frame& frame = frames_[f];
    const bool evictable = frame.valid && frame.pin_count == 0;
    if (evictable != (evictable_[f] != 0)) {
      return Status::Internal("frame " + std::to_string(f) +
                              " evictable flag is " +
                              std::to_string(evictable_[f]) +
                              " but the frame is " +
                              (evictable ? "valid and unpinned"
                                         : "invalid or pinned"));
    }
    if (!frame.valid) continue;
    ++valid_count;
    const uint32_t mapped = FrameOf(frame.id);
    if (mapped == kNoFrame) {
      return Status::Internal("valid frame " + std::to_string(f) +
                              " (file '" + pager_->FileName(frame.id.file) +
                              "' page " + std::to_string(frame.id.page_no) +
                              ") missing from page table");
    }
    if (mapped != f) {
      return Status::Internal("page table maps file '" +
                              pager_->FileName(frame.id.file) + "' page " +
                              std::to_string(frame.id.page_no) +
                              " to frame " + std::to_string(mapped) +
                              " but the page lives in frame " +
                              std::to_string(f));
    }
  }
  size_t table_entries = 0;
  for (const std::vector<uint32_t>& table : page_table_) {
    for (const uint32_t f : table) {
      if (f == kNoFrame) continue;
      if (f >= frames_.size() || !frames_[f].valid) {
        return Status::Internal("page table entry points at frame " +
                                std::to_string(f) +
                                ", which holds no valid page");
      }
      ++table_entries;
    }
  }
  if (table_entries != valid_count) {
    return Status::Internal(
        "page table has " + std::to_string(table_entries) +
        " entries but only " + std::to_string(valid_count) +
        " frames are valid");
  }
  std::vector<bool> is_free(frames_.size(), false);
  for (const uint32_t f : free_frames_) {
    if (f >= frames_.size() || is_free[f]) {
      return Status::Internal("free list entry " + std::to_string(f) +
                              " is out of range or duplicated");
    }
    is_free[f] = true;
    if (frames_[f].valid) {
      return Status::Internal("frame " + std::to_string(f) +
                              " is on the free list but holds a valid page");
    }
  }
  if (free_frames_.size() + valid_count != frames_.size()) {
    return Status::Internal(
        "frame accounting mismatch: " + std::to_string(free_frames_.size()) +
        " free + " + std::to_string(valid_count) + " valid != " +
        std::to_string(frames_.size()) + " frames");
  }
  return Status::Ok();
}

void BufferManager::DiscardAll() {
  for (uint32_t f = 0; f < frames_.size(); ++f) {
    if (!frames_[f].valid) continue;
    TCDB_CHECK_EQ(frames_[f].pin_count, 0u) << "DiscardAll with pinned page";
    DropFrame(f, /*discard=*/true);
    free_frames_.push_back(f);
  }
}

}  // namespace tcdb

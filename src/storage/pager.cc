#include "storage/pager.h"

#include <cstring>

namespace tcdb {

FileId Pager::CreateFile(std::string name) {
  TCDB_CHECK_LT(files_.size(), static_cast<size_t>(UINT16_MAX));
  const FileId id = static_cast<FileId>(files_.size());
  files_.push_back(File{std::move(name), 0, {}});
  return id;
}

const std::string& Pager::FileName(FileId file) const {
  TCDB_CHECK_LT(file, files_.size());
  return files_[file].name;
}

PageNumber Pager::FileSize(FileId file) const {
  TCDB_CHECK_LT(file, files_.size());
  return files_[file].num_pages;
}

Pager::File& Pager::GetFile(FileId file) {
  TCDB_CHECK_LT(file, files_.size());
  return files_[file];
}

PageNumber Pager::AllocatePage(FileId file) {
  File& f = GetFile(file);
  // Fresh pages read back as zeros: storage is materialized lazily on
  // first write.
  return f.num_pages++;
}

void Pager::TruncateFile(FileId file) {
  File& f = GetFile(file);
  f.num_pages = 0;
  f.pages.clear();
}

void Pager::ReadPage(FileId file, PageNumber page_no, Page* out) {
  File& f = GetFile(file);
  TCDB_CHECK_LT(page_no, f.num_pages)
      << "read past end of file '" << f.name << "'";
  if (page_no >= f.pages.size() || f.pages[page_no] == nullptr) {
    out->Zero();
  } else {
    std::memcpy(out->data, f.pages[page_no]->data, kPageSize);
  }
  stats_.RecordRead(file, phase_);
}

void Pager::WritePage(FileId file, PageNumber page_no, const Page& in) {
  File& f = GetFile(file);
  TCDB_CHECK_LT(page_no, f.num_pages)
      << "write past end of file '" << f.name << "'";
  if (page_no >= f.pages.size()) f.pages.resize(page_no + 1);
  if (f.pages[page_no] == nullptr) f.pages[page_no] = std::make_unique<Page>();
  std::memcpy(f.pages[page_no]->data, in.data, kPageSize);
  stats_.RecordWrite(file, phase_);
}

}  // namespace tcdb

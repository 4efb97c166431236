#ifndef TCDB_STORAGE_PAGE_H_
#define TCDB_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "util/check.h"

namespace tcdb {

// The page size used throughout the study (paper Section 5.1).
inline constexpr size_t kPageSize = 2048;

// Identifies a simulated disk file within a Pager.
using FileId = uint16_t;
// Page number within a file.
using PageNumber = uint32_t;

inline constexpr PageNumber kInvalidPageNumber = UINT32_MAX;

// Fully-qualified page address: (file, page number).
struct PageId {
  FileId file = 0;
  PageNumber page_no = kInvalidPageNumber;

  bool operator==(const PageId& other) const = default;
};

// A raw 2048-byte page. Typed views are obtained via As<T>(); callers are
// responsible for the on-page layout (each subsystem documents its own).
struct alignas(8) Page {
  uint8_t data[kPageSize];

  void Zero() { std::memset(data, 0, kPageSize); }

  template <typename T>
  T* As(size_t byte_offset = 0) {
    TCDB_DCHECK(byte_offset + sizeof(T) <= kPageSize);
    return reinterpret_cast<T*>(data + byte_offset);
  }

  template <typename T>
  const T* As(size_t byte_offset = 0) const {
    TCDB_DCHECK(byte_offset + sizeof(T) <= kPageSize);
    return reinterpret_cast<const T*>(data + byte_offset);
  }
};

static_assert(sizeof(Page) == kPageSize, "Page must be exactly kPageSize");

}  // namespace tcdb

#endif  // TCDB_STORAGE_PAGE_H_

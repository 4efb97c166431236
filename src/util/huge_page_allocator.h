#ifndef TCDB_UTIL_HUGE_PAGE_ALLOCATOR_H_
#define TCDB_UTIL_HUGE_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

namespace tcdb {

// One transparent huge page (x86-64 and arm64 with 4 KiB base pages).
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

namespace huge_page_internal {

// An anonymous private mapping of `bytes` (at least kHugePageBytes),
// rounded up to whole huge pages, kHugePageBytes-aligned and advised
// MADV_HUGEPAGE. Throws std::bad_alloc when the mapping fails. Under
// AddressSanitizer the slack between `bytes` and the rounded end is
// poisoned, so an overrun past the array is still reported.
void* MapHugePages(size_t bytes);

// Releases a MapHugePages(bytes) mapping.
void UnmapHugePages(void* p, size_t bytes) noexcept;

}  // namespace huge_page_internal

// A std::allocator-compatible allocator that puts large arrays on
// transparent huge pages. A request of at least kHugePageBytes gets its
// own huge-page mapping (MapHugePages); a smaller one goes to plain
// operator new, so small arrays do not each fault in a fresh 2 MiB page.
// deallocate picks the path by the same size rule, so a vector that grows
// past the threshold, or shrinks back below it, frees each buffer through
// the path that allocated it.
//
// The madvise is advice: under THP "never", or where it fails, the
// mapping is served from ordinary pages and nothing is reported. A failed
// mapping throws std::bad_alloc, as operator new does.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned types need an aligned operator new");

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(huge_page_internal::MapHugePages(bytes));
  }

  void deallocate(T* p, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      ::operator delete(p);
      return;
    }
    huge_page_internal::UnmapHugePages(p, bytes);
  }
};

template <typename T, typename U>
bool operator==(const HugePageAllocator<T>&,
                const HugePageAllocator<U>&) noexcept {
  return true;
}

template <typename T>
using HugeVector = std::vector<T, HugePageAllocator<T>>;

// This process's AnonHugePages in bytes, read from
// /proc/self/smaps_rollup; -1 when it cannot be read.
int64_t AnonHugePagesBytes();

}  // namespace tcdb

#endif  // TCDB_UTIL_HUGE_PAGE_ALLOCATOR_H_

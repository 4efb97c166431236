#include "util/huge_page_allocator.h"

#include <sys/mman.h>

#include <cinttypes>
#include <cstdio>

#include "util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace tcdb {
namespace huge_page_internal {

namespace {

size_t RoundUpToHugePages(size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* MapHugePages(size_t bytes) {
  // The rounded size plus one page of alignment slack must not wrap.
  if (bytes > std::numeric_limits<size_t>::max() - 2 * kHugePageBytes) {
    throw std::bad_alloc();
  }
  const size_t rounded = RoundUpToHugePages(bytes);
  // mmap aligns to base pages only: map one huge page more than needed,
  // then trim the head and tail so the kept range starts on a 2 MiB
  // boundary and every one of its huge pages can be backed by one.
  const size_t span = rounded + kHugePageBytes;
  void* const raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const base = static_cast<char*>(raw);
  const uintptr_t address = reinterpret_cast<uintptr_t>(base);
  const size_t head =
      ((address + kHugePageBytes - 1) & ~(uintptr_t{kHugePageBytes} - 1)) -
      address;
  char* const begin = base + head;
  if (head > 0) {
    TCDB_CHECK(munmap(base, head) == 0);
  }
  TCDB_CHECK(munmap(begin + rounded, kHugePageBytes - head) == 0);
  // Advice only: under THP "never", or where it fails, the range is
  // served from 4 KiB pages with the same contents.
  (void)madvise(begin, rounded, MADV_HUGEPAGE);
  ASAN_POISON_MEMORY_REGION(begin + bytes, rounded - bytes);
  return begin;
}

void UnmapHugePages(void* p, size_t bytes) noexcept {
  const size_t rounded = RoundUpToHugePages(bytes);
  // A later mapping may reuse the range; it must not inherit the poison.
  ASAN_UNPOISON_MEMORY_REGION(p, rounded);
  TCDB_CHECK(munmap(p, rounded) == 0);
}

}  // namespace huge_page_internal

int64_t AnonHugePagesBytes() {
  std::FILE* const file = std::fopen("/proc/self/smaps_rollup", "r");
  if (file == nullptr) return -1;
  int64_t bytes = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    int64_t kib = 0;
    if (std::sscanf(line, "AnonHugePages: %" SCNd64 " kB", &kib) == 1) {
      bytes = kib * 1024;
      break;
    }
  }
  std::fclose(file);
  return bytes;
}

}  // namespace tcdb

// Tests of the huge-page allocator (util/huge_page_allocator.h): 2 MiB
// alignment of large allocations, vectors that cross the size threshold
// in both directions, a ChainIndex on huge pages against its restored
// image, a build under a lowered address-space limit (a refusal, never an
// abort), and, under AddressSanitizer, an overrun into the rounding slack.

#include "util/huge_page_allocator.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/digraph.h"
#include "graph/scale_generator.h"
#include "scale/chain_index.h"
#include "util/codec.h"
#include "util/random.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TCDB_TEST_SANITIZED 1
#endif

namespace tcdb {
namespace {

Digraph Layered100k() {
  ScaleGraphParams params;
  params.family = ScaleFamily::kLayered;
  params.num_nodes = 100000;
  params.width = 64;
  params.degree = 4;
  params.seed = 1;
  return BuildScaleGraph(params);
}

TEST(HugePageAllocatorTest, LargeAllocationsAreHugePageAligned) {
  HugePageAllocator<char> allocator;
  for (const size_t bytes :
       {kHugePageBytes, kHugePageBytes + 4, 3 * kHugePageBytes - 1,
        size_t{7} << 20, size_t{64} << 20}) {
    SCOPED_TRACE(bytes);
    char* const p = allocator.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kHugePageBytes, 0u);
    p[0] = 1;
    p[bytes - 1] = 2;
    EXPECT_EQ(p[0] + p[bytes - 1], 3);
    allocator.deallocate(p, bytes);
  }
  // Under the threshold the request is a plain heap allocation.
  HugePageAllocator<uint64_t> words;
  uint64_t* const small = words.allocate(1000);
  small[999] = 42;
  EXPECT_EQ(small[999], 42u);
  words.deallocate(small, 1000);
}

TEST(HugePageAllocatorTest, VectorKeepsContentsAcrossTheThreshold) {
  constexpr size_t kThreshold = kHugePageBytes / sizeof(uint32_t);
  constexpr size_t kFinal = 3000000;
  const auto value = [](size_t i) {
    return static_cast<uint32_t>(i * 2654435761u);
  };
  HugeVector<uint32_t> values;
  size_t filled = 0;
  for (size_t size = 1; filled < kFinal; size = std::min(2 * size, kFinal)) {
    values.resize(size);
    for (size_t i = filled; i < size; ++i) values[i] = value(i);
    filled = size;
  }
  ASSERT_EQ(values.size(), kFinal);
  EXPECT_GE(values.capacity() * sizeof(uint32_t), kHugePageBytes);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(values.data()) % kHugePageBytes, 0u);
  for (size_t i = 0; i < kFinal; ++i) {
    ASSERT_EQ(values[i], value(i)) << i;
  }

  // Back under the threshold: the huge mapping is released and the
  // contents move to the heap.
  values.resize(kThreshold / 4);
  values.shrink_to_fit();
  EXPECT_LT(values.capacity(), kThreshold);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], value(i)) << i;
  }
}

TEST(HugePageAllocatorTest, ChainIndexMatchesItsImage) {
  const Digraph dag = Layered100k();
  auto built = ChainIndex::Build(dag);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ChainIndex& index = built.value();
  EXPECT_GE(index.FrontierBytes(), static_cast<int64_t>(kHugePageBytes));

  std::string image;
  index.SerializeAppend(&image);
  codec::Reader reader(image.data(), image.size());
  auto restored = ChainIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().num_nodes(), index.num_nodes());
  ASSERT_EQ(restored.value().num_chains(), index.num_chains());

  Rng rng(7);
  const NodeId n = dag.NumNodes();
  int64_t positives = 0;
  for (int i = 0; i < 200000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.Uniform(0, n - 1));
    const bool answer = index.Reaches(u, v);
    ASSERT_EQ(restored.value().Reaches(u, v), answer) << u << " -> " << v;
    positives += answer ? 1 : 0;
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, 200000);
}

TEST(HugePageAllocatorTest, AnonHugePagesIsReadable) {
  std::FILE* const file = std::fopen("/proc/self/smaps_rollup", "r");
  if (file == nullptr) GTEST_SKIP() << "no /proc/self/smaps_rollup";
  std::fclose(file);
  EXPECT_GE(AnonHugePagesBytes(), 0);
}

// The address space this process has mapped, from /proc/self/statm.
int64_t MappedBytes() {
  std::FILE* const file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return -1;
  long long pages = -1;
  const int read = std::fscanf(file, "%lld", &pages);
  std::fclose(file);
  return read == 1 ? pages * sysconf(_SC_PAGESIZE) : -1;
}

// A forked child lowers its own RLIMIT_AS to what it has mapped plus a
// small headroom, then builds a layered 10^5 index (a 34 MB frontier).
// Whichever array's allocation fails first, scratch, per-node label or
// frontier, the build must return ResourceExhausted; an escaped
// std::bad_alloc would abort the child instead.
TEST(HugePageAllocatorTest, BuildRefusesWhenAllocationFails) {
#if defined(TCDB_TEST_SANITIZED)
  GTEST_SKIP() << "sanitizer runtimes reserve more address space than "
                  "the limit allows";
#endif
  const Digraph dag = Layered100k();
  for (const int64_t headroom :
       {int64_t{0}, int64_t{256} << 10, int64_t{1} << 20, int64_t{4} << 20,
        int64_t{16} << 20}) {
    SCOPED_TRACE(headroom);
    EXPECT_EXIT(
        {
          const int64_t mapped = MappedBytes();
          if (mapped < 0) std::_Exit(2);
          struct rlimit limit;
          if (getrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
          limit.rlim_cur = static_cast<rlim_t>(mapped + headroom);
          if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(4);
          const auto built = ChainIndex::Build(dag);
          std::_Exit(built.status().code() == StatusCode::kResourceExhausted
                         ? 0
                         : 5);
        },
        ::testing::ExitedWithCode(0), "");
  }
}

// The slack between an array's end and its 2 MiB-rounded mapping end is
// poisoned, so an overrun there is an AddressSanitizer report.
TEST(HugePageAllocatorTest, OverrunIntoSlackIsReportedUnderAsan) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  HugeVector<uint32_t> values(kHugePageBytes / sizeof(uint32_t) + 3, 1);
  EXPECT_DEATH(
      {
        volatile uint32_t* const end = values.data() + values.size();
        *end = 7;
      },
      "use-after-poison");
#endif
}

}  // namespace
}  // namespace tcdb

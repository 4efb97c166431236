// B+-tree tests: bulk load, search, lower bound, inserts with splits,
// invariants, and equivalence with std::map under random workloads.

#include <gtest/gtest.h>

#include <map>

#include "index/bplus_tree.h"
#include "util/random.h"

namespace tcdb {
namespace {

class BPlusTreeTest : public testing::Test {
 protected:
  BPlusTreeTest()
      : file_(pager_.CreateFile("index")),
        buffers_(&pager_, 64, PagePolicy::kLru),
        tree_(&buffers_, file_) {}

  Pager pager_;
  FileId file_;
  BufferManager buffers_;
  BPlusTree tree_;
};

TEST_F(BPlusTreeTest, EmptyTree) {
  EXPECT_EQ(tree_.size(), 0);
  EXPECT_FALSE(tree_.Search(5).ok());
  auto lb = tree_.LowerBound(0);
  ASSERT_TRUE(lb.ok());
  EXPECT_FALSE(lb.value().has_value());
  EXPECT_TRUE(tree_.CheckInvariants().ok());
}

// Find answers "absent" with nullopt, not an error; Search keeps
// reporting it as kNotFound.
TEST_F(BPlusTreeTest, FindTreatsAbsentKeysAsAnswers) {
  auto empty = tree_.Find(5);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().has_value());
  EXPECT_EQ(tree_.Search(5).status().code(), StatusCode::kNotFound);

  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 2000; k += 2) entries.emplace_back(k, k * 10);
  ASSERT_TRUE(tree_.BulkLoad(entries).ok());
  ASSERT_GE(tree_.height(), 2u);
  for (uint32_t k = 0; k < 2002; ++k) {
    auto found = tree_.Find(k);
    ASSERT_TRUE(found.ok());
    if (k % 2 == 0 && k < 2000) {
      ASSERT_TRUE(found.value().has_value()) << k;
      EXPECT_EQ(*found.value(), k * 10);
    } else {
      EXPECT_FALSE(found.value().has_value()) << k;
      EXPECT_EQ(tree_.Search(k).status().code(), StatusCode::kNotFound);
    }
  }
}

TEST_F(BPlusTreeTest, BulkLoadAndSearch) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 2000; k += 2) entries.emplace_back(k, k * 10);
  ASSERT_TRUE(tree_.BulkLoad(entries).ok());
  EXPECT_EQ(tree_.size(), 1000);
  EXPECT_GE(tree_.height(), 2u);  // 1000 entries > 255 per leaf
  ASSERT_TRUE(tree_.CheckInvariants().ok()) << "invariants";
  for (uint32_t k = 0; k < 2000; k += 2) {
    auto found = tree_.Search(k);
    ASSERT_TRUE(found.ok()) << k;
    EXPECT_EQ(found.value(), k * 10);
  }
  // Odd keys are absent.
  for (uint32_t k = 1; k < 100; k += 2) {
    EXPECT_FALSE(tree_.Search(k).ok()) << k;
  }
}

TEST_F(BPlusTreeTest, BulkLoadRejectsUnsorted) {
  EXPECT_FALSE(tree_.BulkLoad({{2, 0}, {1, 0}}).ok());
  EXPECT_FALSE(tree_.BulkLoad({{1, 0}, {1, 1}}).ok());
}

TEST_F(BPlusTreeTest, BulkLoadTwiceFails) {
  ASSERT_TRUE(tree_.BulkLoad({{1, 1}}).ok());
  EXPECT_EQ(tree_.BulkLoad({{2, 2}}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BPlusTreeTest, LowerBoundSemantics) {
  ASSERT_TRUE(tree_.BulkLoad({{10, 1}, {20, 2}, {30, 3}}).ok());
  auto lb = tree_.LowerBound(15);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(lb.value().has_value());
  EXPECT_EQ(lb.value()->first, 20u);
  EXPECT_EQ(lb.value()->second, 2u);
  lb = tree_.LowerBound(10);
  EXPECT_EQ(lb.value()->first, 10u);
  lb = tree_.LowerBound(31);
  EXPECT_FALSE(lb.value().has_value());
}

TEST_F(BPlusTreeTest, LowerBoundCrossesLeaves) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 600; ++k) entries.emplace_back(k * 10, k);
  ASSERT_TRUE(tree_.BulkLoad(entries).ok());
  // Just past the last key of some leaf.
  for (uint32_t probe : {2541u, 2549u, 5985u}) {
    auto lb = tree_.LowerBound(probe);
    ASSERT_TRUE(lb.ok());
    ASSERT_TRUE(lb.value().has_value()) << probe;
    EXPECT_EQ(lb.value()->first, ((probe + 9) / 10) * 10) << probe;
  }
  // Past the maximum key: no result.
  auto past = tree_.LowerBound(5991);
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past.value().has_value());
}

TEST_F(BPlusTreeTest, InsertGrowsAndSplits) {
  // Enough inserts to force leaf and internal splits (capacity 255).
  for (uint32_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree_.Insert(k * 7 % 65536, k).ok()) << k;
  }
  EXPECT_EQ(tree_.size(), 3000);
  EXPECT_GE(tree_.height(), 2u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  EXPECT_EQ(tree_.Search(7).value(), 1u);
}

TEST_F(BPlusTreeTest, InsertRejectsDuplicates) {
  ASSERT_TRUE(tree_.Insert(5, 1).ok());
  EXPECT_EQ(tree_.Insert(5, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree_.size(), 1);
}

TEST_F(BPlusTreeTest, ScanAllIsSorted) {
  for (uint32_t k : {5u, 3u, 9u, 1u, 7u}) {
    ASSERT_TRUE(tree_.Insert(k, k + 100).ok());
  }
  std::vector<std::pair<uint32_t, uint32_t>> out;
  ASSERT_TRUE(tree_.ScanAll(&out).ok());
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 101}, {3, 103}, {5, 105}, {7, 107}, {9, 109}};
  EXPECT_EQ(out, expected);
}

TEST_F(BPlusTreeTest, RandomizedEquivalenceWithStdMap) {
  Rng rng(2024);
  std::map<uint32_t, uint32_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.Uniform(0, 20000));
    const uint32_t value = static_cast<uint32_t>(rng.Uniform(0, 1 << 30));
    const Status status = tree_.Insert(key, value);
    if (oracle.contains(key)) {
      EXPECT_FALSE(status.ok());
    } else {
      EXPECT_TRUE(status.ok());
      oracle[key] = value;
    }
  }
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  EXPECT_EQ(tree_.size(), static_cast<int64_t>(oracle.size()));
  // Point lookups.
  Rng probe_rng(77);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t key = static_cast<uint32_t>(probe_rng.Uniform(0, 20000));
    auto found = tree_.Search(key);
    if (oracle.contains(key)) {
      ASSERT_TRUE(found.ok()) << key;
      EXPECT_EQ(found.value(), oracle[key]);
    } else {
      EXPECT_FALSE(found.ok()) << key;
    }
  }
  // Full scan equals the oracle.
  std::vector<std::pair<uint32_t, uint32_t>> out;
  ASSERT_TRUE(tree_.ScanAll(&out).ok());
  std::vector<std::pair<uint32_t, uint32_t>> expected(oracle.begin(),
                                                      oracle.end());
  EXPECT_EQ(out, expected);
}

TEST_F(BPlusTreeTest, IndexProbesCostIo) {
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 1000; ++k) entries.emplace_back(k, k);
  ASSERT_TRUE(tree_.BulkLoad(entries).ok());
  buffers_.FlushAll();
  buffers_.DiscardAll();
  pager_.ResetStats();
  ASSERT_TRUE(tree_.Search(999).ok());
  // Cold search reads height() pages.
  EXPECT_EQ(pager_.stats().Total().reads, tree_.height());
}

TEST_F(BPlusTreeTest, WorksWithTinyBufferPool) {
  BufferManager small(&pager_, 3, PagePolicy::kLru);
  BPlusTree tree(&small, pager_.CreateFile("small_index"));
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  for (uint32_t k = 0; k < 5000; ++k) entries.emplace_back(k, k ^ 0xabc);
  ASSERT_TRUE(tree.BulkLoad(entries).ok());
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (uint32_t k = 0; k < 5000; k += 97) {
    EXPECT_EQ(tree.Search(k).value(), k ^ 0xabc);
  }
}

}  // namespace
}  // namespace tcdb

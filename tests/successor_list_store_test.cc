// Successor-list store tests: page/block geometry, append/read round
// trips, clustering, truncation, pinning, the list replacement policies,
// and write-out semantics.

#include <gtest/gtest.h>

#include "succ/successor_list_store.h"
#include "util/random.h"

namespace tcdb {
namespace {

class SuccStoreTest : public testing::Test {
 protected:
  SuccStoreTest()
      : file_(pager_.CreateFile("succ")),
        buffers_(&pager_, 16, PagePolicy::kLru) {}

  std::unique_ptr<SuccessorListStore> MakeStore(
      int32_t num_lists, ListPolicy policy = ListPolicy::kMoveSelf) {
    auto store = std::make_unique<SuccessorListStore>(&buffers_, file_, policy);
    store->Reset(num_lists);
    return store;
  }

  std::vector<int32_t> ReadAll(SuccessorListStore* store, int32_t list) {
    std::vector<int32_t> out;
    EXPECT_TRUE(store->Read(list, &out).ok());
    return out;
  }

  Pager pager_;
  FileId file_;
  BufferManager buffers_;
};

TEST_F(SuccStoreTest, Geometry) {
  EXPECT_EQ(kBlocksPerPage, 30);
  EXPECT_EQ(kEntriesPerBlock, 15);
  EXPECT_EQ(kEntriesPerListPage, 450);  // paper: 450 successors per page
  EXPECT_LE(static_cast<size_t>(kEntriesPerListPage) * sizeof(int32_t),
            kPageSize);
}

TEST_F(SuccStoreTest, AppendReadRoundTrip) {
  auto store = MakeStore(3);
  ASSERT_TRUE(store->Append(0, 7).ok());
  ASSERT_TRUE(store->Append(0, -9).ok());
  ASSERT_TRUE(store->Append(2, 1).ok());
  EXPECT_EQ(ReadAll(store.get(), 0), (std::vector<int32_t>{7, -9}));
  EXPECT_EQ(ReadAll(store.get(), 1), std::vector<int32_t>{});
  EXPECT_EQ(ReadAll(store.get(), 2), std::vector<int32_t>{1});
  EXPECT_EQ(store->ListLength(0), 2);
  EXPECT_EQ(store->TotalEntries(), 3);
}

TEST_F(SuccStoreTest, AppendManySpansBlocksAndPages) {
  auto store = MakeStore(1);
  std::vector<int32_t> values(1000);
  for (int i = 0; i < 1000; ++i) values[i] = i * 3;
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  EXPECT_EQ(ReadAll(store.get(), 0), values);
  // 1000 entries = 67 blocks; first page has 30 blocks, so at least 3 pages.
  EXPECT_GE(store->NumPages(), 3u);
}

TEST_F(SuccStoreTest, InterListClusteringSharesPages) {
  auto store = MakeStore(30);
  for (int32_t list = 0; list < 30; ++list) {
    ASSERT_TRUE(store->Append(list, list).ok());
  }
  // 30 lists of one block each fit exactly one page.
  EXPECT_EQ(store->NumPages(), 1u);
}

TEST_F(SuccStoreTest, IntraListClusteringPrefersOwnPage) {
  auto store = MakeStore(2);
  ASSERT_TRUE(store->Append(0, 1).ok());
  ASSERT_TRUE(store->Append(1, 2).ok());
  // Growing list 0 by a few blocks stays on page 0 while it has room.
  std::vector<int32_t> more(100, 5);
  ASSERT_TRUE(store->AppendMany(0, more).ok());
  EXPECT_EQ(store->NumPages(), 1u);
}

TEST_F(SuccStoreTest, EntryCountersTrackTraffic) {
  auto store = MakeStore(2);
  std::vector<int32_t> values(20, 1);
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  ReadAll(store.get(), 0);
  ReadAll(store.get(), 0);
  EXPECT_EQ(store->entries_written(), 20);
  EXPECT_EQ(store->entries_read(), 40);
  EXPECT_EQ(store->lists_read(), 2);
}

TEST_F(SuccStoreTest, TruncateEmptiesAndReusesPage) {
  auto store = MakeStore(2);
  std::vector<int32_t> values(50, 9);
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  ASSERT_TRUE(store->Append(1, 3).ok());
  const PageNumber pages_before = store->NumPages();
  store->Truncate(0);
  EXPECT_EQ(store->ListLength(0), 0);
  EXPECT_EQ(ReadAll(store.get(), 0), std::vector<int32_t>{});
  EXPECT_EQ(ReadAll(store.get(), 1), std::vector<int32_t>{3});
  // Rewriting a similar amount reuses the freed blocks: no page growth.
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  EXPECT_EQ(store->NumPages(), pages_before);
  EXPECT_EQ(ReadAll(store.get(), 0), values);
}

TEST_F(SuccStoreTest, ResetClearsEverything) {
  auto store = MakeStore(2);
  ASSERT_TRUE(store->Append(0, 1).ok());
  store->Reset(5);
  EXPECT_EQ(store->num_lists(), 5);
  EXPECT_EQ(store->TotalEntries(), 0);
  EXPECT_EQ(store->NumPages(), 0u);
  EXPECT_EQ(store->entries_written(), 0);
}

TEST_F(SuccStoreTest, ListPagesReportsUniquePagesInOrder) {
  auto store = MakeStore(1);
  std::vector<int32_t> values(900, 2);  // exactly two pages
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  const auto pages = store->ListPages(0);
  EXPECT_EQ(pages.size(), 2u);
  EXPECT_NE(pages[0], pages[1]);
}

TEST_F(SuccStoreTest, PinListPagesPreventsEviction) {
  auto store = MakeStore(1);
  std::vector<int32_t> values(450, 4);
  ASSERT_TRUE(store->AppendMany(0, values).ok());
  {
    Result<std::vector<PageGuard>> guards = store->PinListPages(0);
    ASSERT_TRUE(guards.ok());
    EXPECT_GE(buffers_.PinnedCount(), 1u);
  }
  // Guards released their pins at scope exit.
  EXPECT_EQ(buffers_.PinnedCount(), 0u);
  EXPECT_TRUE(buffers_.AuditNoPins().ok());
}

TEST_F(SuccStoreTest, PinFailureReleasesPartialPins) {
  BufferManager tiny(&pager_, 4, PagePolicy::kLru);
  SuccessorListStore store(&tiny, pager_.CreateFile("tiny"), ListPolicy::kMoveSelf);
  store.Reset(1);
  std::vector<int32_t> values(450 * 6, 1);  // 6 pages > 4 frames
  ASSERT_TRUE(store.AppendMany(0, values).ok());
  Result<std::vector<PageGuard>> guards = store.PinListPages(0);
  EXPECT_EQ(guards.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.PinnedCount(), 0u);
  EXPECT_TRUE(tiny.AuditNoPins().ok());
}

TEST_F(SuccStoreTest, FinalizeFlushesKeptAndDropsRest) {
  auto store = MakeStore(60);
  // Two pages worth of lists: lists 0..29 on page 0, lists 30..59 on page 1.
  for (int32_t list = 0; list < 60; ++list) {
    ASSERT_TRUE(store->Append(list, list).ok());
  }
  ASSERT_EQ(store->NumPages(), 2u);
  pager_.ResetStats();
  std::vector<bool> keep(60, false);
  keep[5] = true;  // page 0 must be flushed; page 1 dropped.
  store->FinalizeKeepLists(keep);
  EXPECT_EQ(pager_.stats().ForFile(file_).writes, 1u);
  EXPECT_FALSE(buffers_.IsCached({file_, 1}));
}

TEST_F(SuccStoreTest, MoveSelfContinuesOnFreshPage) {
  auto store = MakeStore(31, ListPolicy::kMoveSelf);
  // Fill page 0 with 30 single-block lists, then grow list 0 past its block.
  for (int32_t list = 0; list < 30; ++list) {
    ASSERT_TRUE(store->Append(list, list).ok());
  }
  std::vector<int32_t> more(30, 7);
  ASSERT_TRUE(store->AppendMany(0, more).ok());
  EXPECT_EQ(store->NumPages(), 2u);
  EXPECT_EQ(store->list_moves(), 0);  // move-self does not count as a move
  // Other lists remain intact.
  EXPECT_EQ(ReadAll(store.get(), 7), std::vector<int32_t>{7});
  std::vector<int32_t> expected = {0};
  expected.insert(expected.end(), more.begin(), more.end());
  EXPECT_EQ(ReadAll(store.get(), 0), expected);
}

TEST_F(SuccStoreTest, MoveLargestRelocatesVictim) {
  auto store = MakeStore(3, ListPolicy::kMoveLargest);
  // List 1 is the largest co-tenant (20 blocks), list 2 is small; fill the
  // rest of page 0 with list 0.
  std::vector<int32_t> big(20 * kEntriesPerBlock, 1);
  ASSERT_TRUE(store->AppendMany(1, big).ok());
  ASSERT_TRUE(store->Append(2, 2).ok());
  std::vector<int32_t> mine(9 * kEntriesPerBlock, 0);
  ASSERT_TRUE(store->AppendMany(0, mine).ok());
  ASSERT_EQ(store->NumPages(), 1u);
  // Growing list 0 forces a split; list 1 (largest other) is relocated.
  ASSERT_TRUE(store->Append(0, 0).ok());
  EXPECT_EQ(store->list_moves(), 1);
  EXPECT_EQ(store->NumPages(), 2u);
  // All contents intact after relocation.
  EXPECT_EQ(ReadAll(store.get(), 1), big);
  EXPECT_EQ(ReadAll(store.get(), 2), std::vector<int32_t>{2});
  mine.push_back(0);
  EXPECT_EQ(ReadAll(store.get(), 0), mine);
  // List 0's new block is on page 0 (the split freed space in place).
  EXPECT_EQ(store->ListPages(0), std::vector<PageNumber>{0});
}

TEST_F(SuccStoreTest, MoveNewestRelocatesMostRecentlyGrown) {
  auto store = MakeStore(3, ListPolicy::kMoveNewest);
  std::vector<int32_t> chunk(10 * kEntriesPerBlock, 3);
  ASSERT_TRUE(store->AppendMany(1, chunk).ok());   // older
  ASSERT_TRUE(store->AppendMany(2, chunk).ok());   // newer
  std::vector<int32_t> mine(10 * kEntriesPerBlock, 0);
  ASSERT_TRUE(store->AppendMany(0, mine).ok());    // newest (the grower)
  ASSERT_EQ(store->NumPages(), 1u);
  ASSERT_TRUE(store->Append(0, 5).ok());
  EXPECT_EQ(store->list_moves(), 1);
  // List 2 (most recently grown other than the grower) moved to page 1.
  EXPECT_EQ(store->ListPages(2), std::vector<PageNumber>{1});
  EXPECT_EQ(store->ListPages(1), std::vector<PageNumber>{0});
  EXPECT_EQ(ReadAll(store.get(), 2), chunk);
}

TEST_F(SuccStoreTest, RandomizedRoundTripAcrossPolicies) {
  for (const ListPolicy policy :
       {ListPolicy::kMoveSelf, ListPolicy::kMoveLargest,
        ListPolicy::kMoveNewest}) {
    Pager pager;
    BufferManager buffers(&pager, 8, PagePolicy::kLru);
    SuccessorListStore store(&buffers, pager.CreateFile("x"), policy);
    const int32_t kLists = 40;
    store.Reset(kLists);
    std::vector<std::vector<int32_t>> oracle(kLists);
    Rng rng(1234);
    for (int round = 0; round < 3000; ++round) {
      const int32_t list = static_cast<int32_t>(rng.Uniform(0, kLists - 1));
      if (rng.Bernoulli(0.02)) {
        store.Truncate(list);
        oracle[list].clear();
        continue;
      }
      const int count = static_cast<int>(rng.Uniform(1, 8));
      std::vector<int32_t> values;
      for (int i = 0; i < count; ++i) {
        values.push_back(static_cast<int32_t>(rng.Uniform(-1000, 1000)));
      }
      ASSERT_TRUE(store.AppendMany(list, values).ok());
      oracle[list].insert(oracle[list].end(), values.begin(), values.end());
    }
    for (int32_t list = 0; list < kLists; ++list) {
      std::vector<int32_t> out;
      ASSERT_TRUE(store.Read(list, &out).ok());
      EXPECT_EQ(out, oracle[list])
          << "policy " << ListPolicyName(policy) << " list " << list;
    }
  }
}

TEST_F(SuccStoreTest, PolicyNames) {
  EXPECT_STREQ(ListPolicyName(ListPolicy::kMoveSelf), "move-self");
  EXPECT_STREQ(ListPolicyName(ListPolicy::kMoveLargest), "move-largest");
  EXPECT_STREQ(ListPolicyName(ListPolicy::kMoveNewest), "move-newest");
}

}  // namespace
}  // namespace tcdb

// Buffer manager tests: pinning discipline, eviction, hit accounting,
// flush/discard semantics, and all five replacement policies.

#include <gtest/gtest.h>

#include "storage/buffer_manager.h"

namespace tcdb {
namespace {

class BufferManagerTest : public testing::Test {
 protected:
  BufferManagerTest() : file_(pager_.CreateFile("data")) {
    for (int i = 0; i < 32; ++i) pager_.AllocatePage(file_);
  }

  Pager pager_;
  FileId file_;
};

TEST_F(BufferManagerTest, FetchPinsAndCaches) {
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  auto page = buffers.FetchPage({file_, 0});
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(buffers.IsCached({file_, 0}));
  EXPECT_TRUE(buffers.IsPinned({file_, 0}));
  buffers.Unpin({file_, 0}, false);
  EXPECT_FALSE(buffers.IsPinned({file_, 0}));
  EXPECT_TRUE(buffers.IsCached({file_, 0}));
}

// PinPage names the frame holding the page; UnpinFrame releases by that
// frame without a page-table lookup, and the audits see the frame
// evictable again.
TEST_F(BufferManagerTest, PinPageAndUnpinFrame) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  auto first = buffers.PinPage({file_, 3});
  ASSERT_TRUE(first.ok());
  auto again = buffers.PinPage({file_, 3});  // a nested pin, same frame
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().frame, first.value().frame);
  EXPECT_EQ(again.value().page, first.value().page);
  auto second = buffers.PinPage({file_, 4});
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().frame, first.value().frame);
  EXPECT_EQ(buffers.PinPage({file_, 5}).status().code(),
            StatusCode::kResourceExhausted);

  buffers.UnpinFrame(first.value().frame, /*dirty=*/true);
  EXPECT_TRUE(buffers.IsPinned({file_, 3}));
  buffers.UnpinFrame(first.value().frame, /*dirty=*/false);
  EXPECT_FALSE(buffers.IsPinned({file_, 3}));
  EXPECT_TRUE(buffers.AuditCachedCountConsistent().ok());

  // Page 3 is the only unpinned frame, so it is the victim, written back
  // because one of its pins was released dirty.
  pager_.ResetStats();
  auto third = buffers.PinPage({file_, 5});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().frame, first.value().frame);
  EXPECT_FALSE(buffers.IsCached({file_, 3}));
  EXPECT_EQ(pager_.stats().Total().writes, 1u);
  buffers.UnpinFrame(third.value().frame, false);
  buffers.UnpinFrame(second.value().frame, false);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
  EXPECT_TRUE(buffers.AuditCachedCountConsistent().ok());
}

TEST_F(BufferManagerTest, SecondFetchIsHit) {
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, false);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, false);
  const auto total = buffers.access_stats().Total();
  EXPECT_EQ(total.hits, 1u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(pager_.stats().Total().reads, 1u);
}

TEST_F(BufferManagerTest, EvictionWritesDirtyPages) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  auto page = buffers.FetchPage({file_, 0});
  ASSERT_TRUE(page.ok());
  *page.value()->As<int32_t>(0) = 42;
  buffers.Unpin({file_, 0}, /*dirty=*/true);
  // Fill the pool so page 0 is evicted.
  for (PageNumber p = 1; p <= 2; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_FALSE(buffers.IsCached({file_, 0}));
  EXPECT_EQ(pager_.stats().Total().writes, 1u);
  // Re-reading returns the written data.
  auto again = buffers.FetchPage({file_, 0});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again.value()->As<int32_t>(0), 42);
  buffers.Unpin({file_, 0}, false);
}

TEST_F(BufferManagerTest, CleanEvictionDoesNotWrite) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  for (PageNumber p = 0; p < 6; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_EQ(pager_.stats().Total().writes, 0u);
  EXPECT_EQ(pager_.stats().Total().reads, 6u);
}

TEST_F(BufferManagerTest, PinnedPagesAreNotEvicted) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());  // stays pinned
  for (PageNumber p = 1; p < 5; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_TRUE(buffers.IsCached({file_, 0}));
  buffers.Unpin({file_, 0}, false);
}

TEST_F(BufferManagerTest, ExhaustionWhenAllPinned) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  ASSERT_TRUE(buffers.FetchPage({file_, 1}).ok());
  auto third = buffers.FetchPage({file_, 2});
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  buffers.Unpin({file_, 0}, false);
  // Now there is a victim.
  EXPECT_TRUE(buffers.FetchPage({file_, 2}).ok());
  buffers.Unpin({file_, 1}, false);
  buffers.Unpin({file_, 2}, false);
}

TEST_F(BufferManagerTest, NestedPins) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, false);
  EXPECT_TRUE(buffers.IsPinned({file_, 0}));
  buffers.Unpin({file_, 0}, false);
  EXPECT_FALSE(buffers.IsPinned({file_, 0}));
}

TEST_F(BufferManagerTest, NewPageIsDirtyAndZeroed) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  auto page = buffers.NewPage(file_);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value().first, 32u);  // appended after the 32 existing
  EXPECT_EQ(*page.value().second->As<int64_t>(0), 0);
  buffers.Unpin({file_, page.value().first}, false);
  // Eviction must write it (it was born dirty).
  for (PageNumber p = 0; p < 3; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_EQ(pager_.stats().ForFile(file_).writes, 1u);
}

TEST_F(BufferManagerTest, FlushAllAndFile) {
  const FileId other = pager_.CreateFile("other");
  pager_.AllocatePage(other);
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, true);
  ASSERT_TRUE(buffers.FetchPage({other, 0}).ok());
  buffers.Unpin({other, 0}, true);

  buffers.FlushFile(other);
  EXPECT_EQ(pager_.stats().ForFile(other).writes, 1u);
  EXPECT_EQ(pager_.stats().ForFile(file_).writes, 0u);
  buffers.FlushAll();
  EXPECT_EQ(pager_.stats().ForFile(file_).writes, 1u);
  // Flushing clean pages again writes nothing.
  buffers.FlushAll();
  EXPECT_EQ(pager_.stats().Total().writes, 2u);
}

TEST_F(BufferManagerTest, DiscardDropsWithoutWrite) {
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, true);
  buffers.DiscardPage({file_, 0});
  EXPECT_FALSE(buffers.IsCached({file_, 0}));
  EXPECT_EQ(pager_.stats().Total().writes, 0u);
}

TEST_F(BufferManagerTest, DiscardFileOnlyTouchesFile) {
  const FileId other = pager_.CreateFile("other");
  pager_.AllocatePage(other);
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, true);
  ASSERT_TRUE(buffers.FetchPage({other, 0}).ok());
  buffers.Unpin({other, 0}, true);
  buffers.DiscardFile(file_);
  EXPECT_FALSE(buffers.IsCached({file_, 0}));
  EXPECT_TRUE(buffers.IsCached({other, 0}));
}

TEST_F(BufferManagerTest, HitStatsAttributedToPhase) {
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  pager_.SetPhase(Phase::kComputation);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, false);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  buffers.Unpin({file_, 0}, false);
  const auto hm =
      buffers.access_stats().ForFileAndPhase(file_, Phase::kComputation);
  EXPECT_EQ(hm.hits, 1u);
  EXPECT_EQ(hm.misses, 1u);
  EXPECT_DOUBLE_EQ(hm.HitRatio(), 0.5);
  EXPECT_EQ(buffers.access_stats().ForPhase(Phase::kSetup).requests(), 0u);
}

TEST_F(BufferManagerTest, NewPageExhaustsWhenAllPinned) {
  // HYB's dynamic reblocking depends on this exact signal: allocation must
  // fail with kResourceExhausted (not evict a pinned frame) when every
  // frame is pinned, and succeed again once a pin is dropped.
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  ASSERT_TRUE(buffers.FetchPage({file_, 0}).ok());
  ASSERT_TRUE(buffers.FetchPage({file_, 1}).ok());
  auto page = buffers.NewPage(file_);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
  // The failed allocation must not have leaked a frame or a pin.
  EXPECT_EQ(buffers.PinnedCount(), 2u);
  EXPECT_TRUE(buffers.AuditCachedCountConsistent().ok());
  buffers.Unpin({file_, 1}, false);
  auto retry = buffers.NewPage(file_);
  ASSERT_TRUE(retry.ok());
  buffers.Unpin({file_, retry.value().first}, false);
  buffers.Unpin({file_, 0}, false);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
}

TEST_F(BufferManagerTest, DiscardedFramesAreReusedWithoutEviction) {
  BufferManager buffers(&pager_, 2, PagePolicy::kLru);
  for (PageNumber p = 0; p < 2; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  // Discard one page: its frame goes back on the free list, so the next
  // fetch must fill it directly — no eviction, no write-back.
  buffers.DiscardPage({file_, 0});
  EXPECT_EQ(buffers.CachedCount(), 1u);
  ASSERT_TRUE(buffers.FetchPage({file_, 5}).ok());
  buffers.Unpin({file_, 5}, false);
  EXPECT_TRUE(buffers.IsCached({file_, 1}));  // nothing was evicted
  EXPECT_EQ(pager_.stats().Total().writes, 0u);

  // DiscardFile frees every frame of the file at once.
  buffers.DiscardFile(file_);
  EXPECT_EQ(buffers.CachedCount(), 0u);
  EXPECT_TRUE(buffers.AuditCachedCountConsistent().ok());
  for (PageNumber p = 8; p < 10; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_EQ(pager_.stats().Total().writes, 0u);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
}

TEST_F(BufferManagerTest, ClockFallsBackOnSecondSweep) {
  // Every unpinned frame has its reference bit set, so the first sweep
  // only clears bits; the second sweep must still find a victim instead
  // of reporting exhaustion.
  BufferManager buffers(&pager_, 3, PagePolicy::kClock);
  for (PageNumber p = 0; p < 3; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  // Re-reference all three so no bit is clear at eviction time.
  for (PageNumber p = 0; p < 3; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  auto page = buffers.FetchPage({file_, 10});
  ASSERT_TRUE(page.ok());
  buffers.Unpin({file_, 10}, false);
  EXPECT_EQ(buffers.CachedCount(), 3u);
  // With one frame pinned and the rest referenced, the sweeps skip the
  // pinned frame but still evict one of the others.
  ASSERT_TRUE(buffers.FetchPage({file_, 10}).ok());
  for (PageNumber p = 20; p < 22; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  EXPECT_TRUE(buffers.IsCached({file_, 10}));
  buffers.Unpin({file_, 10}, false);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
}

TEST_F(BufferManagerTest, AuditReportsDanglingPinWithProvenance) {
  BufferManager buffers(&pager_, 4, PagePolicy::kLru);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
  ASSERT_TRUE(buffers.FetchPage({file_, 3}, "LeakyCaller").ok());
  const Status leak = buffers.AuditNoPins();
  ASSERT_FALSE(leak.ok());
  EXPECT_EQ(leak.code(), StatusCode::kInternal);
  // The report names the file, the page and the pinning call site.
  EXPECT_NE(leak.message().find("data"), std::string::npos);
  EXPECT_NE(leak.message().find("page 3"), std::string::npos);
  EXPECT_NE(leak.message().find("LeakyCaller"), std::string::npos);
  buffers.Unpin({file_, 3}, false);
  EXPECT_TRUE(buffers.AuditNoPins().ok());
  EXPECT_TRUE(buffers.AuditCachedCountConsistent().ok());
}

// --- Policy behaviour -------------------------------------------------

// Touch pages 0..n-1, then re-touch page 0, then overflow by one and check
// which page was evicted.
PageNumber EvictedAfterSequence(Pager* pager, FileId file,
                                PagePolicy policy) {
  BufferManager buffers(pager, 3, policy);
  for (PageNumber p = 0; p < 3; ++p) {
    EXPECT_TRUE(buffers.FetchPage({file, p}).ok());
    buffers.Unpin({file, p}, false);
  }
  // Re-access page 0 (matters for LRU/MRU, not FIFO).
  EXPECT_TRUE(buffers.FetchPage({file, 0}).ok());
  buffers.Unpin({file, 0}, false);
  // Overflow.
  EXPECT_TRUE(buffers.FetchPage({file, 10}).ok());
  buffers.Unpin({file, 10}, false);
  for (PageNumber p = 0; p < 3; ++p) {
    if (!buffers.IsCached({file, p})) return p;
  }
  return kInvalidPageNumber;
}

TEST_F(BufferManagerTest, LruEvictsLeastRecentlyUsed) {
  EXPECT_EQ(EvictedAfterSequence(&pager_, file_, PagePolicy::kLru), 1u);
}

TEST_F(BufferManagerTest, MruEvictsMostRecentlyUsed) {
  EXPECT_EQ(EvictedAfterSequence(&pager_, file_, PagePolicy::kMru), 0u);
}

TEST_F(BufferManagerTest, FifoIgnoresReaccess) {
  EXPECT_EQ(EvictedAfterSequence(&pager_, file_, PagePolicy::kFifo), 0u);
}

TEST_F(BufferManagerTest, ClockEvictsUnreferenced) {
  // All pages start referenced; the first sweep clears bits, the second
  // picks the first candidate — deterministic, just verify it works and
  // evicts exactly one page.
  BufferManager buffers(&pager_, 3, PagePolicy::kClock);
  for (PageNumber p = 0; p < 4; ++p) {
    ASSERT_TRUE(buffers.FetchPage({file_, p}).ok());
    buffers.Unpin({file_, p}, false);
  }
  int cached = 0;
  for (PageNumber p = 0; p < 4; ++p) cached += buffers.IsCached({file_, p});
  EXPECT_EQ(cached, 3);
}

TEST_F(BufferManagerTest, RandomPolicyIsDeterministicInSeed) {
  auto run = [&](uint64_t seed) {
    Pager pager;
    const FileId file = pager.CreateFile("x");
    for (int i = 0; i < 16; ++i) pager.AllocatePage(file);
    BufferManager buffers(&pager, 3, PagePolicy::kRandom, seed);
    std::vector<bool> cached;
    for (PageNumber p = 0; p < 10; ++p) {
      EXPECT_TRUE(buffers.FetchPage({file, p}).ok());
      buffers.Unpin({file, p}, false);
    }
    for (PageNumber p = 0; p < 10; ++p) {
      cached.push_back(buffers.IsCached({file, p}));
    }
    return cached;
  };
  EXPECT_EQ(run(1), run(1));
}

TEST_F(BufferManagerTest, AllPoliciesSurviveWorkout) {
  for (PagePolicy policy :
       {PagePolicy::kLru, PagePolicy::kMru, PagePolicy::kFifo,
        PagePolicy::kClock, PagePolicy::kRandom}) {
    BufferManager buffers(&pager_, 5, policy);
    // Mixed fetch/new/dirty pattern.
    for (int round = 0; round < 200; ++round) {
      const PageNumber p = static_cast<PageNumber>((round * 7) % 32);
      auto page = buffers.FetchPage({file_, p});
      ASSERT_TRUE(page.ok()) << PagePolicyName(policy);
      buffers.Unpin({file_, p}, round % 3 == 0);
    }
    buffers.FlushAll();
    // Data must be identical to a direct read.
    Page direct;
    pager_.ReadPage(file_, 3, &direct);
    auto via_pool = buffers.FetchPage({file_, 3});
    ASSERT_TRUE(via_pool.ok());
    EXPECT_EQ(std::memcmp(direct.data, via_pool.value()->data, kPageSize), 0);
    buffers.Unpin({file_, 3}, false);
  }
}

}  // namespace
}  // namespace tcdb

// Relation storage tests: build, lookup via the clustered index, scans,
// dual representation, and I/O accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generator.h"
#include "relation/relation_file.h"
#include "storage/page_guard.h"

namespace tcdb {
namespace {

class RelationTest : public testing::Test {
 protected:
  RelationTest()
      : data_(pager_.CreateFile("rel.dat")),
        index_(pager_.CreateFile("rel.idx")),
        buffers_(&pager_, 16, PagePolicy::kLru) {}

  void Build(const ArcList& arcs) {
    ASSERT_TRUE(
        RelationFile::Build(&buffers_, data_, index_, arcs, &relation_).ok());
  }

  Pager pager_;
  FileId data_;
  FileId index_;
  BufferManager buffers_;
  std::unique_ptr<RelationFile> relation_;
};

TEST_F(RelationTest, RejectsUnsortedInput) {
  std::unique_ptr<RelationFile> relation;
  EXPECT_FALSE(RelationFile::Build(&buffers_, data_, index_,
                                   {{2, 1}, {1, 1}}, &relation)
                   .ok());
  EXPECT_FALSE(RelationFile::Build(&buffers_, data_, index_,
                                   {{1, 1}, {1, 1}}, &relation)
                   .ok());
}

TEST_F(RelationTest, EmptyRelation) {
  Build({});
  EXPECT_EQ(relation_->num_tuples(), 0);
  EXPECT_EQ(relation_->num_data_pages(), 0u);
  std::vector<int32_t> out;
  ASSERT_TRUE(relation_->LookupSrc(5, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(RelationTest, PackingIs256TuplesPerPage) {
  ArcList arcs;
  for (int32_t i = 0; i < 600; ++i) arcs.push_back(Arc{i, i + 1});
  std::sort(arcs.begin(), arcs.end());
  Build(arcs);
  EXPECT_EQ(relation_->num_data_pages(), 3u);  // ceil(600 / 256)
}

TEST_F(RelationTest, LookupFindsAllSuccessors) {
  // Node 7 has successors 10..19; nodes around it have a few arcs.
  ArcList arcs;
  for (int32_t d = 10; d < 20; ++d) arcs.push_back(Arc{7, d});
  arcs.push_back(Arc{5, 6});
  arcs.push_back(Arc{9, 1});
  std::sort(arcs.begin(), arcs.end());
  Build(arcs);
  std::vector<int32_t> out;
  ASSERT_TRUE(relation_->LookupSrc(7, &out).ok());
  std::vector<int32_t> expected;
  for (int32_t d = 10; d < 20; ++d) expected.push_back(d);
  EXPECT_EQ(out, expected);
  out.clear();
  ASSERT_TRUE(relation_->LookupSrc(6, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(RelationTest, LookupSpansPageBoundary) {
  // One src whose tuples straddle several pages.
  ArcList arcs;
  arcs.push_back(Arc{0, 1});
  for (int32_t d = 0; d < 700; ++d) arcs.push_back(Arc{5, d});
  arcs.push_back(Arc{9, 3});
  std::sort(arcs.begin(), arcs.end());
  Build(arcs);
  std::vector<int32_t> out;
  ASSERT_TRUE(relation_->LookupSrc(5, &out).ok());
  EXPECT_EQ(out.size(), 700u);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(out.back(), 699);
}

TEST_F(RelationTest, ScanVisitsEverythingInOrder) {
  const ArcList arcs = GenerateDag({100, 4, 30, 5});
  Build(arcs);
  ArcList seen;
  ASSERT_TRUE(relation_->Scan([&](const Arc& arc) { seen.push_back(arc); }).ok());
  EXPECT_EQ(seen, arcs);
}

TEST_F(RelationTest, LookupMatchesGeneratorAdjacency) {
  const GeneratorParams params{300, 5, 60, 42};
  const ArcList arcs = GenerateDag(params);
  const Digraph graph(params.num_nodes, arcs);
  Build(arcs);
  for (NodeId v = 0; v < params.num_nodes; ++v) {
    std::vector<int32_t> out;
    ASSERT_TRUE(relation_->LookupSrc(v, &out).ok());
    const auto expected = graph.Successors(v);
    ASSERT_EQ(out.size(), expected.size()) << v;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), expected.begin()));
  }
}

TEST_F(RelationTest, ReverseArcsBuildsInverseRelation) {
  const ArcList arcs = GenerateDag({200, 3, 50, 9});
  const ArcList inverse = ReverseArcs(arcs);
  ASSERT_EQ(inverse.size(), arcs.size());
  EXPECT_TRUE(std::is_sorted(inverse.begin(), inverse.end()));
  // Every (s, d) appears as (d, s).
  for (const Arc& arc : arcs) {
    EXPECT_TRUE(std::binary_search(inverse.begin(), inverse.end(),
                                   Arc{arc.dst, arc.src}));
  }
  // Inverse relation answers predecessor queries.
  Build(inverse);
  const Digraph graph(200, arcs);
  const Digraph reversed = graph.Reversed();
  for (NodeId v = 0; v < 200; v += 17) {
    std::vector<int32_t> preds;
    ASSERT_TRUE(relation_->LookupSrc(v, &preds).ok());
    const auto expected = reversed.Successors(v);
    ASSERT_EQ(preds.size(), expected.size());
    EXPECT_TRUE(std::equal(preds.begin(), preds.end(), expected.begin()));
  }
}

TEST_F(RelationTest, ColdLookupCostsIndexDescentPlusData) {
  ArcList arcs;
  for (int32_t i = 0; i < 1000; ++i) arcs.push_back(Arc{i, i + 1});
  std::sort(arcs.begin(), arcs.end());
  Build(arcs);
  buffers_.FlushAll();
  buffers_.DiscardAll();
  pager_.ResetStats();
  std::vector<int32_t> out;
  ASSERT_TRUE(relation_->LookupSrc(500, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // Index height pages + 1 data page (plus possibly the next data page if
  // the match ends a page). 1000 keys fit in one leaf + ... height is 2.
  EXPECT_EQ(pager_.stats().ForFile(index_).reads, relation_->index().height());
  EXPECT_GE(pager_.stats().ForFile(data_).reads, 1u);
  EXPECT_LE(pager_.stats().ForFile(data_).reads, 2u);
}

// A failed page access during the index descent is an error, not "no
// arcs": with both frames of a 2-frame pool pinned, the root of a
// height-2 index cannot be read, and LookupSrc must say so instead of
// returning an empty adjacency.
TEST(RelationLookupErrorTest, DescentFailureIsReturnedNotEmpty) {
  Pager pager;
  const FileId data = pager.CreateFile("rel.dat");
  const FileId index = pager.CreateFile("rel.idx");
  BufferManager buffers(&pager, 2, PagePolicy::kLru);
  ArcList arcs;
  for (int32_t i = 0; i < 600; ++i) arcs.push_back(Arc{i, i + 1});
  std::unique_ptr<RelationFile> relation;
  ASSERT_TRUE(RelationFile::Build(&buffers, data, index, arcs, &relation).ok());
  ASSERT_EQ(relation->index().height(), 2u);  // 600 keys > one leaf

  std::vector<int32_t> out;
  ASSERT_TRUE(relation->LookupSrc(300, &out).ok());
  EXPECT_EQ(out, std::vector<int32_t>{301});

  auto first = PageGuard::Fetch(&buffers, {data, 0});
  auto second = PageGuard::Fetch(&buffers, {data, 1});
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(buffers.PinnedCount(), 2u);  // every frame, none of the index
  out.clear();
  const Status status = relation->LookupSrc(300, &out);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(relation->index().Search(300).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(relation->index().Find(300).status().code(),
            StatusCode::kResourceExhausted);

  // An absent key is still an answer once the pool has room.
  first.value().Release();
  second.value().Release();
  ASSERT_TRUE(relation->LookupSrc(5000, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(relation->index().Search(5000).status().code(),
            StatusCode::kNotFound);
  auto absent = relation->index().Find(5000);
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent.value().has_value());
}

}  // namespace
}  // namespace tcdb

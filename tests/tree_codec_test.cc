// FlatTree and encode/decode tests, including round-trip property tests
// over random trees (the negated-parent on-disk format of SPN/JKB).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "succ/tree_codec.h"
#include "util/random.h"

namespace tcdb {
namespace {

std::vector<int32_t> ChildIndices(const FlatTree& tree, int32_t index) {
  std::vector<int32_t> children;
  for (int32_t c = tree.FirstChild(index); c != -1; c = tree.NextSibling(c)) {
    children.push_back(c);
  }
  return children;
}

TEST(FlatTreeTest, RootOnly) {
  FlatTree tree(5);
  EXPECT_EQ(tree.root(), 5);
  EXPECT_EQ(tree.size(), 1);
  EXPECT_TRUE(tree.Contains(5));
  EXPECT_FALSE(tree.Contains(4));
  EXPECT_EQ(tree.IndexOf(5), 0);
  EXPECT_EQ(tree.IndexOf(4), -1);
  EXPECT_EQ(tree.NumChildren(0), 0);
}

TEST(FlatTreeTest, AddChildrenPreservesOrder) {
  FlatTree tree(0);
  const int32_t a = tree.AddChild(0, 3);
  const int32_t b = tree.AddChild(0, 1);
  tree.AddChild(a, 7);
  EXPECT_EQ(tree.size(), 4);
  EXPECT_EQ(ChildIndices(tree, 0), (std::vector<int32_t>{a, b}));
  EXPECT_EQ(tree.ParentOf(a), 0);
  EXPECT_EQ(tree.NumChildren(0), 2);
  EXPECT_EQ(tree.NumChildren(a), 1);
  EXPECT_EQ(tree.NodeAt(tree.FirstChild(a)), 7);
  EXPECT_EQ(tree.NextSibling(b), -1);
}

TEST(FlatTreeTest, ResetForgetsOnlyTheOldTree) {
  FlatTree tree(0);
  const int32_t a = tree.AddChild(0, 30);
  tree.AddChild(a, 12);
  tree.Reset(12);
  EXPECT_EQ(tree.root(), 12);
  EXPECT_EQ(tree.size(), 1);
  EXPECT_EQ(tree.IndexOf(12), 0);
  EXPECT_FALSE(tree.Contains(0));
  EXPECT_FALSE(tree.Contains(30));
  EXPECT_EQ(tree.FirstChild(0), -1);
  // The old nodes can be added again, now under the new root.
  const int32_t zero = tree.AddChild(0, 0);
  tree.AddChild(zero, 30);
  EXPECT_EQ(tree.size(), 3);
  EXPECT_EQ(tree.NodeAt(tree.ParentOf(tree.IndexOf(30))), 0);
  EXPECT_EQ(EncodeTree(tree), (std::vector<int32_t>{-13, 1, -1, 31}));
}

TEST(TreeCodecTest, SingleNodeEncoding) {
  FlatTree tree(0);  // node id 0 exercises the +1 bias
  const std::vector<int32_t> encoded = EncodeTree(tree);
  EXPECT_EQ(encoded, std::vector<int32_t>{1});
  auto decoded = DecodeTree(encoded, 1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().root(), 0);
  EXPECT_EQ(decoded.value().size(), 1);
}

TEST(TreeCodecTest, PaperFormatParentsNegated) {
  // Root 4 with children 2 and 9; 2 has child 0.
  FlatTree tree(4);
  const int32_t two = tree.AddChild(0, 2);
  tree.AddChild(0, 9);
  tree.AddChild(two, 0);
  const std::vector<int32_t> encoded = EncodeTree(tree);
  // BFS: -(4+1), 2+1, 9+1, -(2+1), 0+1.
  EXPECT_EQ(encoded, (std::vector<int32_t>{-5, 3, 10, -3, 1}));
}

TEST(TreeCodecTest, DecodeRejectsMalformedInput) {
  const NodeId n = 10;  // the node universe [0, 10)
  auto rejected = [&](std::vector<int32_t> encoded) {
    const auto decoded = DecodeTree(encoded, n);
    return !decoded.ok() &&
           decoded.status().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected({}));
  // Trailing data after a single-node encoding.
  EXPECT_TRUE(rejected({1, 2}));
  // Parent marker for a node never introduced.
  EXPECT_TRUE(rejected({-1, 2, -9, 4}));
  // Duplicate node.
  EXPECT_TRUE(rejected({-1, 2, 2}));
  // Zero entry is invalid (ids are biased by +1), in any position.
  EXPECT_TRUE(rejected({-1, 0}));
  EXPECT_TRUE(rejected({0}));
  EXPECT_TRUE(rejected({0, 5}));
  // INT32_MIN has no positive counterpart, in any position.
  EXPECT_TRUE(rejected({INT32_MIN}));
  EXPECT_TRUE(rejected({INT32_MIN, 2}));
  EXPECT_TRUE(rejected({-1, INT32_MIN}));
  EXPECT_TRUE(rejected({-1, 2, INT32_MIN, 3}));
  // Node ids at or beyond the universe, as root, child or marker.
  EXPECT_TRUE(rejected({11}));
  EXPECT_TRUE(rejected({INT32_MAX}));
  EXPECT_TRUE(rejected({-11, 2}));
  EXPECT_TRUE(rejected({-1, 11}));
  EXPECT_TRUE(rejected({-1, INT32_MAX}));
  EXPECT_TRUE(rejected({-1, 2, -11, 3}));
  // Parent markers that EncodeTree never writes: one with no children,
  // one naming a parent a second time, one out of BFS order.
  EXPECT_TRUE(rejected({-1}));
  EXPECT_TRUE(rejected({-1, 2, -2}));
  EXPECT_TRUE(rejected({-1, 2, -2, -1, 3}));
  EXPECT_TRUE(rejected({-1, 2, 3, -2, 4, -1, 5}));
  EXPECT_TRUE(rejected({-1, 2, 3, -3, 4, -2, 5}));
  // The largest id in the universe is fine.
  EXPECT_TRUE(DecodeTree(std::vector<int32_t>{10}, n).ok());
  EXPECT_TRUE(DecodeTree(std::vector<int32_t>{-10, 1}, n).ok());
}

TEST(TreeCodecTest, DecodeIntoReusesTreeAfterFailure) {
  FlatTree tree;
  ASSERT_TRUE(
      DecodeTreeInto(std::vector<int32_t>{-1, 2, 3, -2, 4}, 5, &tree).ok());
  // Fails half way, after adding nodes 4, 1 and 0.
  EXPECT_FALSE(
      DecodeTreeInto(std::vector<int32_t>{-5, 2, -2, 1, 1}, 5, &tree).ok());
  ASSERT_TRUE(DecodeTreeInto(std::vector<int32_t>{-3, 5}, 5, &tree).ok());
  EXPECT_EQ(tree.size(), 2);
  EXPECT_EQ(tree.root(), 2);
  EXPECT_TRUE(tree.Contains(4));
  EXPECT_FALSE(tree.Contains(0));
  EXPECT_FALSE(tree.Contains(1));
  EXPECT_FALSE(tree.Contains(3));
}

FlatTree RandomTree(Rng* rng, int32_t num_nodes) {
  FlatTree tree(0);
  for (NodeId node = 1; node < num_nodes; ++node) {
    const int32_t parent =
        static_cast<int32_t>(rng->Uniform(0, tree.size() - 1));
    tree.AddChild(parent, node);
  }
  return tree;
}

bool SameTree(const FlatTree& a, const FlatTree& b) {
  if (a.size() != b.size() || a.root() != b.root()) return false;
  for (int32_t i = 0; i < a.size(); ++i) {
    const NodeId node = a.NodeAt(i);
    const int32_t j = b.IndexOf(node);
    if (j == -1) return false;
    // Same parent node id.
    const int32_t pa = a.ParentOf(i);
    const int32_t pb = b.ParentOf(j);
    if ((pa == -1) != (pb == -1)) return false;
    if (pa != -1 && a.NodeAt(pa) != b.NodeAt(pb)) return false;
    // Same child order.
    std::vector<NodeId> ca, cb;
    for (int32_t c : ChildIndices(a, i)) ca.push_back(a.NodeAt(c));
    for (int32_t c : ChildIndices(b, j)) cb.push_back(b.NodeAt(c));
    if (ca != cb) return false;
  }
  return true;
}

class TreeCodecPropertyTest : public testing::TestWithParam<int32_t> {};

TEST_P(TreeCodecPropertyTest, RoundTripRandomTrees) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const int32_t size = static_cast<int32_t>(rng.Uniform(1, 200));
    const FlatTree tree = RandomTree(&rng, size);
    const std::vector<int32_t> encoded = EncodeTree(tree);
    // Encoding size: every node appears once as a child (except the root),
    // plus one negated marker per internal node.
    int32_t internal = 0;
    for (int32_t i = 0; i < tree.size(); ++i) {
      internal += tree.NumChildren(i) > 0 ? 1 : 0;
    }
    if (tree.size() == 1) {
      EXPECT_EQ(encoded.size(), 1u);
    } else {
      EXPECT_EQ(static_cast<int32_t>(encoded.size()),
                tree.size() - 1 + internal);
    }
    auto decoded = DecodeTree(encoded, size);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(SameTree(tree, decoded.value())) << "seed " << GetParam();
    // One id short of the universe, the largest node is out of range.
    if (size > 1) {
      EXPECT_FALSE(DecodeTree(encoded, size - 1).ok());
    }
  }
}

// Decoding untrusted bytes: the encodings of the 50 random trees above
// (same seed, same trees), mutated by bit flips, truncation, length
// inflation and splices from the previous tree's encoding. Every decode must fail with a Status or yield a
// tree that re-encodes to exactly the mutated entries (the decoder accepts
// only canonical encodings). Decodes go into one reused tree, as in the
// algorithms, and are cross-checked against a fresh decode.
TEST_P(TreeCodecPropertyTest, MutatedEncodingsFailOrRoundTrip) {
  Rng rng(GetParam());
  Rng mutation_rng(GetParam() + 1000);
  std::vector<int32_t> previous = {1};
  FlatTree reused;
  std::vector<int32_t> queue;
  std::vector<int32_t> reencoded;
  int accepted = 0;
  int rejected = 0;
  auto check = [&](const std::vector<int32_t>& mutated, NodeId universe) {
    const Status status = DecodeTreeInto(mutated, universe, &reused);
    const auto fresh = DecodeTree(mutated, universe);
    ASSERT_EQ(status.ok(), fresh.ok());
    if (!status.ok()) {
      ++rejected;
      return;
    }
    ++accepted;
    EncodeTreeInto(reused, &queue, &reencoded);
    EXPECT_EQ(reencoded, mutated) << "seed " << GetParam();
    EXPECT_TRUE(SameTree(reused, fresh.value()));
  };
  auto index = [&](size_t size) {
    return static_cast<size_t>(
        mutation_rng.Uniform(0, static_cast<int64_t>(size) - 1));
  };
  for (int trial = 0; trial < 50; ++trial) {
    const int32_t size = static_cast<int32_t>(rng.Uniform(1, 200));
    const std::vector<int32_t> encoded = EncodeTree(RandomTree(&rng, size));
    // A little slack above the tree's ids, so some flipped ids still land
    // inside the universe.
    const NodeId universe = size + 8;
    check(encoded, universe);
    for (int flip = 0; flip < 16; ++flip) {
      std::vector<int32_t> mutated = encoded;
      mutated[index(mutated.size())] ^=
          static_cast<int32_t>(1u << mutation_rng.Uniform(0, 31));
      check(mutated, universe);
    }
    for (int cut = 0; cut < 4; ++cut) {
      check({encoded.begin(), encoded.begin() + index(encoded.size())},
            universe);
    }
    for (int grow = 0; grow < 4; ++grow) {
      std::vector<int32_t> mutated = encoded;
      const int64_t extra = mutation_rng.Uniform(1, 8);
      for (int64_t e = 0; e < extra; ++e) {
        mutated.push_back(
            static_cast<int32_t>(mutation_rng.Uniform(-universe, universe)));
      }
      check(mutated, universe);
    }
    for (int splice = 0; splice < 4; ++splice) {
      std::vector<int32_t> mutated(encoded.begin(),
                                   encoded.begin() + index(encoded.size()));
      const size_t from = index(previous.size());
      mutated.insert(mutated.end(), previous.begin() + from, previous.end());
      check(mutated, universe);
    }
    previous = encoded;
  }
  // The mutations exercise both outcomes: beyond the 50 originals, some
  // mutants are themselves canonical (~140 per seed), most are not.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeCodecPropertyTest,
                         testing::Range<int32_t>(1, 6));

}  // namespace
}  // namespace tcdb
